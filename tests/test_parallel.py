"""Tests for the loop-parallelism analysis and the §5.7 trade-off."""

from repro.dependence import carried_levels, is_vectorizable, parallel_loops
from repro.exec import Machine, simulate
from repro.cache import CACHE2
from repro.frontend import parse_program
from repro.model import CostModel
from repro.suite import build_app, cholesky, jacobi, matmul
from repro.transforms import compound


class TestParallelLoops:
    def test_jacobi_fully_parallel(self):
        nest = jacobi(12).top_loops[0]
        assert sorted(parallel_loops(nest)) == ["I", "J"]
        assert is_vectorizable(nest)

    def test_matmul_reduction_carried(self):
        nest = matmul(8, "IJK").top_loops[0]
        carried = carried_levels(nest)
        # The K reduction on C(I,J) is carried by K; I and J are parallel.
        assert carried["K"]
        assert not carried["I"] and not carried["J"]

    def test_cholesky_all_carried(self):
        nest = cholesky(8, "KIJ").top_loops[0]
        carried = carried_levels(nest)
        assert carried["K"]

    def test_stencil_recurrence(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N)
            DO I = 2, N
              A(I) = A(I-1) * 0.5
            ENDDO
            END
            """
        )
        assert parallel_loops(prog.top_loops[0]) == []
        assert not is_vectorizable(prog.top_loops[0])

    def test_scalar_reduction_blocks_all(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                S = S + A(J,I)
              ENDDO
            ENDDO
            END
            """
        )
        assert parallel_loops(prog.top_loops[0]) == []


class TestSimpleTradeoff:
    """The §5.7 'Simple' story: the compiler trades inner-loop
    vectorizability for locality, and wins on cache behaviour."""

    def test_compound_moves_recurrence_inward(self):
        prog = build_app("simple_like", 32)
        nest = prog.top_loops[0]
        # Original: recurrence carried by the OUTER loop (vector form).
        assert is_vectorizable(nest)
        outcome = compound(prog, CostModel(cls=4))
        new_nest = outcome.program.top_loops[0]
        # After optimization the recurrence runs innermost...
        assert not is_vectorizable(new_nest)
        # ...and the cache behaviour improves.
        machine = Machine(cache=CACHE2, miss_penalty=20)
        before = simulate(prog, machine)
        after = simulate(outcome.program, machine)
        assert after.cycles < before.cycles
