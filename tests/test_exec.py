"""Tests for layout, the interpreter, and the timing model — including
semantics preservation under the compound transformations."""

import numpy as np
import pytest

from repro.cache import CACHE2
from repro.errors import ExecutionError
from repro.exec import (
    Interpreter,
    Machine,
    MemoryLayout,
    default_init,
    run_program,
    simulate,
)
from repro.frontend import parse_program
from repro.model import CostModel
from repro.suite import matmul
from repro.transforms import compound


class TestLayout:
    def prog(self):
        return parse_program(
            """
            PROGRAM p
            PARAMETER N = 4
            REAL A(N,N), B(N)
            DO I = 1, N
              B(I) = A(I,1)
            ENDDO
            END
            """
        )

    def test_column_major_addresses(self):
        layout = MemoryLayout.for_program(self.prog())
        a = layout["A"]
        # Walking the first subscript is contiguous (8-byte elements).
        assert a.address([2, 1]) - a.address([1, 1]) == 8
        # Walking the second subscript strides by a whole column.
        assert a.address([1, 2]) - a.address([1, 1]) == 8 * 4

    def test_arrays_disjoint(self):
        layout = MemoryLayout.for_program(self.prog())
        a, b = layout["A"], layout["B"]
        a_end = a.base + a.total_bytes
        assert b.base >= a_end

    def test_bounds_checked(self):
        layout = MemoryLayout.for_program(self.prog())
        with pytest.raises(ExecutionError):
            layout["A"].address([5, 1])
        with pytest.raises(ExecutionError):
            layout["A"].address([0, 1])


class TestInterpreter:
    def test_simple_loop_values(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 5
            REAL A(N)
            DO I = 1, N
              A(I) = I * 2.0
            ENDDO
            END
            """
        )
        arrays = run_program(prog)
        assert np.allclose(arrays["A"], [2, 4, 6, 8, 10])

    def test_matmul_against_numpy(self):
        prog = parse_program(
            """
            PROGRAM mm
            PARAMETER N = 6
            REAL A(N,N), B(N,N), C(N,N)
            DO J = 1, N
              DO I = 1, N
                C(I,J) = 0.0
              ENDDO
            ENDDO
            DO J = 1, N
              DO K = 1, N
                DO I = 1, N
                  C(I,J) = C(I,J) + A(I,K)*B(K,J)
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )
        interp = Interpreter(prog)
        a0 = interp.arrays["A"].copy()
        b0 = interp.arrays["B"].copy()
        interp.run()
        assert np.allclose(interp.arrays["C"], a0 @ b0)

    def test_trace_order_reads_then_write(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 1
            REAL A(N), B(N), C(N)
            DO I = 1, N
              C(I) = A(I) + B(I)
            ENDDO
            END
            """
        )
        events = []
        run_program(prog, on_access=events.append)
        assert [(e.array, e.write) for e in events] == [
            ("A", False),
            ("B", False),
            ("C", True),
        ]

    def test_negative_step_execution(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 4
            REAL A(N)
            DO I = N, 2, -1
              A(I) = A(I-1)
            ENDDO
            END
            """
        )
        interp = Interpreter(prog, init=lambda n, e: np.arange(1, 5, dtype=float))
        interp.run()
        # Shift-right semantics: A = [1, 1, 2, 3]
        assert np.allclose(interp.arrays["A"], [1, 1, 2, 3])

    def test_division_by_zero_raises(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 2
            REAL A(N), B(N)
            DO I = 1, N
              A(I) = B(I) / 0.0
            ENDDO
            END
            """
        )
        with pytest.raises(ExecutionError):
            run_program(prog)

    def test_operation_counting(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N), B(N)
            DO I = 1, N
              A(I) = B(I) * 2.0 + 1.0
            ENDDO
            END
            """
        )
        interp = Interpreter(prog)
        interp.run()
        assert interp.statements_executed == 10
        # 2 arithmetic ops + 1 store op per statement instance.
        assert interp.operations_executed == 30

    def test_param_override(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 4
            REAL A(N)
            DO I = 1, N
              A(I) = 1.0
            ENDDO
            END
            """
        )
        interp = Interpreter(prog.with_params({"N": 3}))
        assert interp.arrays["A"].shape == (3,)


class TestTiming:
    def test_stride_matters(self):
        """Column-order traversal of a big array beats row-order."""
        col = parse_program(
            """
            PROGRAM col
            PARAMETER N = 64
            REAL A(N,N)
            DO J = 1, N
              DO I = 1, N
                A(I,J) = A(I,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        row = parse_program(
            """
            PROGRAM row
            PARAMETER N = 64
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = A(I,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        machine = Machine(cache=CACHE2, miss_penalty=20)
        col_perf = simulate(col, machine)
        row_perf = simulate(row, machine)
        assert col_perf.cycles < row_perf.cycles
        assert col_perf.hit_rate > row_perf.hit_rate

    def test_same_ops_different_misses(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 32
            REAL A(N,N)
            DO J = 1, N
              DO I = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            END
            """
        )
        fast = simulate(prog, Machine(cache=CACHE2, miss_penalty=1))
        slow = simulate(prog, Machine(cache=CACHE2, miss_penalty=100))
        assert fast.operations == slow.operations
        assert fast.cycles < slow.cycles

    def test_every_access_is_simulated(self):
        # 3 reads + 1 write per matmul instance.
        assert simulate(matmul(32, "JKI")).accesses == 32 ** 3 * 4


SEMANTICS_SOURCES = [
    (
        "matmul",
        """
        PROGRAM mm
        PARAMETER N = 10
        REAL A(N,N), B(N,N), C(N,N)
        DO I = 1, N
          DO J = 1, N
            DO K = 1, N
              C(I,J) = C(I,J) + A(I,K)*B(K,J)
            ENDDO
          ENDDO
        ENDDO
        END
        """,
    ),
    (
        "adi-fusable",
        """
        PROGRAM adi
        PARAMETER N = 12
        REAL X(N,N), A(N,N), B(N,N)
        DO I = 2, N
          DO K = 1, N
            X(I,K) = X(I,K) - X(I-1,K)*A(I,K)/B(I-1,K)
          ENDDO
          DO K = 1, N
            B(I,K) = B(I,K) - A(I,K)*A(I,K)/B(I-1,K)
          ENDDO
        ENDDO
        END
        """,
    ),
    (
        "triangular",
        """
        PROGRAM tri
        PARAMETER N = 12
        REAL A(N,N)
        DO I = 1, N
          DO J = 1, I
            A(I,J) = A(I,J) * 2.0 + 1.0
          ENDDO
        ENDDO
        END
        """,
    ),
    (
        "stencil",
        """
        PROGRAM st
        PARAMETER N = 12
        REAL A(N,N), B(N,N)
        DO I = 2, N - 1
          DO J = 2, N - 1
            B(I,J) = A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1)
          ENDDO
        ENDDO
        END
        """,
    ),
    (
        "fuse-candidates",
        """
        PROGRAM fc
        PARAMETER N = 20
        REAL A(N), B(N), C(N)
        DO I = 1, N
          B(I) = A(I) * 2.0
        ENDDO
        DO J = 1, N
          C(J) = A(J) + B(J)
        ENDDO
        END
        """,
    ),
]


class TestSemanticsPreservation:
    """Compound-transformed programs compute identical values."""

    @pytest.mark.parametrize("name,source", SEMANTICS_SOURCES, ids=[s[0] for s in SEMANTICS_SOURCES])
    def test_compound_preserves_values(self, name, source):
        prog = parse_program(source)
        outcome = compound(prog, CostModel(cls=4))
        before = run_program(prog)
        after = run_program(outcome.program)
        assert set(before) == set(after)
        for array in before:
            np.testing.assert_allclose(
                before[array], after[array], rtol=1e-12,
                err_msg=f"{name}: array {array} differs after transformation",
            )

    def test_cholesky_semantics(self):
        source = """
        PROGRAM chol
        PARAMETER N = 10
        REAL A(N,N)
        DO K = 1, N
          A(K,K) = SQRT(A(K,K))
          DO I = K+1, N
            A(I,K) = A(I,K) / A(K,K)
            DO J = K+1, I
              A(I,J) = A(I,J) - A(I,K)*A(J,K)
            ENDDO
          ENDDO
        ENDDO
        END
        """
        prog = parse_program(source)
        outcome = compound(prog, CostModel(cls=4))

        def spd_init(name, extents):
            n = extents[0]
            base = np.fromfunction(
                lambda i, j: 1.0 / (1.0 + abs(i - j)), extents
            )
            return base + np.eye(n) * n

        before = Interpreter(prog, init=spd_init)
        before.run()
        after = Interpreter(outcome.program, init=spd_init)
        after.run()
        np.testing.assert_allclose(
            before.arrays["A"], after.arrays["A"], rtol=1e-12
        )


class TestDefaultInit:
    def test_pinned_values(self):
        # Regression pin: suite baselines depend on these exact values —
        # any change to default_init silently shifts every simulated
        # hit rate and semantics check.
        a = default_init("A", (2, 3))
        assert a.flags["F_CONTIGUOUS"]
        np.testing.assert_allclose(
            a,
            np.array(
                [
                    [1.1435643564356437, 1.400990099009901, 0.6584158415841584],
                    [1.2722772277227723, 0.5297029702970297, 0.7871287128712872],
                ]
            ),
            rtol=0,
            atol=0,
        )

    def test_scalar_and_formula(self):
        scalar = default_init("B", ())
        assert scalar.shape == ()
        assert float(scalar) == 1.1534653465346536
        # The closed form: ((i*13 + seed) % 101) / 101 + 0.5, seed = sum of
        # name ordinals mod 97, flattened column-major.
        name = "XY"
        seed = sum(ord(c) for c in name) % 97
        flat = ((np.arange(12, dtype=np.float64) * 13 + seed) % 101) / 101.0 + 0.5
        np.testing.assert_array_equal(
            default_init(name, (3, 4)), flat.reshape((3, 4), order="F")
        )
        assert np.all(default_init(name, (3, 4)) > 0)
