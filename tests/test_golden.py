"""Golden tests: exact transformed output for the paper's worked examples.

These pin the precise loop structures Compound produces for the kernels
the paper shows, so any behavioural drift in the transformation stack is
caught immediately (update deliberately if the algorithm is changed).
"""

import textwrap

from repro.ir import pretty_program
from repro.model import CostModel
from repro.suite import adi, cholesky, matmul
from repro.transforms import compound


def transformed(program):
    return pretty_program(compound(program, CostModel(cls=4)).program)


def expect(text: str) -> str:
    return textwrap.dedent(text).strip()


class TestGoldenOutputs:
    def test_matmul_ijk(self):
        assert transformed(matmul(64, "IJK")) == expect(
            """
            PROGRAM matmul_ijk
            PARAMETER N = 64
            REAL A(N, N)
            REAL B(N, N)
            REAL C(N, N)
            DO J = 1, N
              DO K = 1, N
                DO I = 1, N
                  C(I, J) = (C(I, J) + (A(I, K) * B(K, J)))
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )

    def test_cholesky_kij(self):
        # Figure 7(b): distribution of the I loop, then triangular
        # interchange of the update nest into (J, I).
        assert transformed(cholesky(24, "KIJ")) == expect(
            """
            PROGRAM cholesky_kij
            PARAMETER N = 24
            REAL A(N, N)
            DO K = 1, N
              A(K, K) = SQRT(A(K, K))
              DO I = K+1, N
                A(I, K) = (A(I, K) / A(K, K))
              ENDDO
              DO J = K+1, N
                DO I_2 = J, N
                  A(I_2, J) = (A(I_2, J) - (A(I_2, K) * A(J, K)))
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )

    def test_adi_distributed(self):
        # Figure 3(c): fuse the K loops, then interchange to put I inner.
        assert transformed(adi(32, "distributed")) == expect(
            """
            PROGRAM adi_distributed
            PARAMETER N = 32
            REAL X(N, N)
            REAL A(N, N)
            REAL B(N, N)
            DO K = 1, N
              DO I = 2, N
                X(I, K) = (X(I, K) - ((X(I-1, K) * A(I, K)) / B(I-1, K)))
                B(I, K) = (B(I, K) - ((A(I, K) * A(I, K)) / B(I-1, K)))
              ENDDO
            ENDDO
            END
            """
        )

    def test_gmtry_like(self):
        from repro.suite import build_app

        # Distribution peels the scaling statement; the update nest is
        # interchanged to walk the unit-stride first subscript.
        text = transformed(build_app("gmtry_like", 16))
        assert "DO K = I+1, N" in text
        assert "DO J_2 = I+1, N" in text or "DO J" in text
        lines = [l.strip() for l in text.splitlines() if l.strip().startswith("DO")]
        # The innermost loop of the update walks J (first subscript).
        assert lines[-1].startswith("DO J")

    def test_jacobi(self):
        from repro.suite import jacobi

        text = transformed(jacobi(16))
        do_lines = [
            l.strip() for l in text.splitlines() if l.strip().startswith("DO")
        ]
        # Both nests interchanged to put the unit-stride I loops inner.
        assert do_lines == ["DO J = 2, N-1", "DO I = 2, N-1",
                            "DO J2 = 2, N-1", "DO I2 = 2, N-1"]
