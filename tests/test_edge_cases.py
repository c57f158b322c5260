"""Edge-case robustness: unusual but legal programs through the whole
pipeline (analysis, Compound, simulation, statistics)."""

import numpy as np
import pytest

from repro.exec import run_program, simulate
from repro.frontend import parse_program
from repro.model import CostModel
from repro.stats import collect_program_stats


def full_pipeline(source, n_params=None):
    prog = parse_program(source)
    if n_params:
        prog = prog.with_params(n_params)
    stats, outcome = collect_program_stats(prog, CostModel(cls=4))
    before = run_program(prog)
    after = run_program(outcome.program)
    for name in before:
        np.testing.assert_allclose(before[name], after[name], rtol=1e-10)
    simulate(outcome.program)
    return stats, outcome


class TestEdgeCases:
    def test_empty_body_program(self):
        prog = parse_program("PROGRAM p\nREAL A(4)\nEND")
        stats, outcome = collect_program_stats(prog, CostModel())
        assert stats.nests == 0
        assert outcome.program.body == ()

    def test_statements_only(self):
        full_pipeline(
            """
            PROGRAM p
            REAL A(4)
            A(1) = 1.0
            A(2) = A(1) + 1.0
            END
            """
        )

    def test_zero_trip_loop(self):
        stats, outcome = full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 0
            REAL A(10, 10)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            END
            """
        )
        assert stats.nests == 1

    def test_single_iteration_loops(self):
        full_pipeline(
            """
            PROGRAM p
            REAL A(3,3)
            DO I = 2, 2
              DO J = 2, 2
                A(I,J) = A(I-1,J-1) + 1.0
              ENDDO
            ENDDO
            END
            """
        )

    def test_four_deep_nest(self):
        stats, outcome = full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 5
            REAL A(N,N,N,N)
            DO I = 1, N
              DO J = 1, N
                DO K = 1, N
                  DO L = 1, N
                    A(L,K,J,I) = A(L,K,J,I) * 2.0
                  ENDDO
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )
        assert stats.memory_order_orig == 1  # L innermost is unit stride

    def test_four_deep_needs_full_permutation(self):
        stats, _ = full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 5
            REAL A(N,N,N,N)
            DO I = 1, N
              DO J = 1, N
                DO K = 1, N
                  DO L = 1, N
                    A(I,J,K,L) = A(I,J,K,L) * 2.0
                  ENDDO
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )
        assert stats.memory_order_perm == 1  # fully reversed to L,K,J,I

    def test_strided_loops_through_compound(self):
        full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 16
            REAL A(N,N)
            DO I = 1, N, 2
              DO J = 1, N, 4
                A(I,J) = A(I,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )

    def test_negative_step_through_compound(self):
        full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 12
            REAL A(N,N), B(N,N)
            DO I = N, 1, -1
              DO J = 1, N
                B(I,J) = A(I,J) * 2.0
              ENDDO
            ENDDO
            END
            """
        )

    def test_deeply_imperfect(self):
        full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), B(N,N), S(N)
            DO I = 1, N
              S(I) = 0.0
              DO J = 1, N
                S(I) = S(I) + A(J,I)
                DO K = 1, N
                  B(K,I) = B(K,I) + A(K,J)
                ENDDO
              ENDDO
              A(1,I) = S(I)
            ENDDO
            END
            """
        )

    def test_same_array_read_write_mixed_ranks_rejected(self):
        from repro.errors import IRError

        with pytest.raises(IRError):
            parse_program(
                """
                PROGRAM p
                REAL A(4,4)
                DO I = 1, 4
                  A(I) = 1.0
                ENDDO
                END
                """
            )

    def test_large_constant_subscript_offsets(self):
        full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N+100)
            DO I = 1, N
              A(I+100) = A(I) + 1.0
            ENDDO
            END
            """
        )

    def test_parameter_expression_bounds(self):
        full_pipeline(
            """
            PROGRAM p
            PARAMETER N = 10
            PARAMETER M = 4
            REAL A(N, N)
            DO I = M, N - M + 2
              DO J = 2, N - 1
                A(J,I) = A(J-1,I) + A(J+1,I-1)
              ENDDO
            ENDDO
            END
            """
        )

    def test_many_adjacent_nests(self):
        # Ten adjacent compatible nests: fusion should behave (greedy is
        # quadratic, so this also guards runtime blowups).
        nests = "\n".join(
            f"""
            DO J{i} = 1, N
              DO I{i} = 1, N
                W{i}(I{i},J{i}) = W{max(i - 1, 0)}(I{i},J{i}) + 1.0
              ENDDO
            ENDDO"""
            for i in range(10)
        )
        arrays = ", ".join(f"W{i}(N,N)" for i in range(10))
        stats, outcome = full_pipeline(
            f"""
            PROGRAM p
            PARAMETER N = 6
            REAL {arrays}
            {nests}
            END
            """
        )
        assert stats.fusion_candidates == 10
        assert stats.nests_fused >= 5
