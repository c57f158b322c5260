"""Tests for loop permutation, bounds recomputation, and reversal."""

import pytest

from repro.errors import TransformError
from repro.frontend import parse_program
from repro.ir import Affine, Loop, iter_loops
from repro.model import CostModel
from repro.transforms import permute_nest, permuted_bounds
from repro.transforms.bounds import loops_coupled

MATMUL_IJK = """
PROGRAM matmul
PARAMETER N = 64
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""


def nest_of(source: str) -> Loop:
    return parse_program(source).top_loops[0]


class TestPermutedBounds:
    def test_rectangular_passthrough(self):
        loops = [Loop.make("I", 1, "N", []), Loop.make("J", 1, "M", [])]
        bounds = permuted_bounds(loops, ["J", "I"])
        assert bounds == [
            (Affine.constant(1), Affine.var("M")),
            (Affine.constant(1), Affine.var("N")),
        ]

    def test_not_coupled(self):
        loops = [Loop.make("I", 1, "N", []), Loop.make("J", 1, "M", [])]
        assert not loops_coupled(loops, ["J", "I"])

    def test_triangular_interchange(self):
        # DO I = 1, N / DO J = 1, I  ->  DO J = 1, N / DO I = J, N
        loops = [Loop.make("I", 1, "N", []), Loop.make("J", 1, "I", [])]
        assert loops_coupled(loops, ["J", "I"])
        bounds = permuted_bounds(loops, ["J", "I"])
        assert bounds[0] == (Affine.constant(1), Affine.var("N"))
        assert bounds[1] == (Affine.var("J"), Affine.var("N"))

    def test_cholesky_style_interchange_with_context(self):
        # Within DO K: DO I = K+1, N / DO J = K+1, I -> J: K+1..N, I: J..N
        k_loop = Loop.make("K", 1, "N", [])
        loops = [
            Loop.make("I", Affine.var("K") + 1, "N", []),
            Loop.make("J", Affine.var("K") + 1, "I", []),
        ]
        bounds = permuted_bounds(loops, ["J", "I"], outer_loops=(k_loop,))
        assert bounds[0] == (Affine.var("K") + 1, Affine.var("N"))
        assert bounds[1] == (Affine.var("J"), Affine.var("N"))

    def test_non_unit_step_coupled_rejected(self):
        loops = [
            Loop.make("I", 1, "N", [], step=2),
            Loop.make("J", 1, "I", []),
        ]
        with pytest.raises(TransformError):
            permuted_bounds(loops, ["J", "I"])

    def test_iteration_space_preserved(self):
        # Count points of the triangular space both ways.
        loops = [Loop.make("I", 1, 8, []), Loop.make("J", 1, "I", [])]
        bounds = permuted_bounds(loops, ["J", "I"])
        original = {(i, j) for i in range(1, 9) for j in range(1, i + 1)}
        swapped = set()
        (lb_j, ub_j), (lb_i, ub_i) = bounds
        for j in range(lb_j.evaluate({}), ub_j.evaluate({}) + 1):
            env = {"J": j}
            for i in range(lb_i.evaluate(env), ub_i.evaluate(env) + 1):
                swapped.add((i, j))
        assert swapped == original


class TestPermuteNest:
    def test_matmul_ijk_to_jki(self):
        nest = nest_of(MATMUL_IJK)
        res = permute_nest(nest, CostModel(cls=4))
        assert res.applied
        assert res.order == ("J", "K", "I")
        assert res.achieved_memory_order
        assert not res.originally_in_memory_order
        assert [l.var for l in iter_loops(res.loop)] == ["J", "K", "I"]
        # Statement body unchanged.
        assert res.loop.statements == nest.statements

    def test_already_memory_order_noop(self):
        src = MATMUL_IJK.replace(
            "DO I = 1, N\n  DO J = 1, N\n    DO K = 1, N",
            "DO J = 1, N\n  DO K = 1, N\n    DO I = 1, N",
        )
        nest = nest_of(src)
        res = permute_nest(nest, CostModel(cls=4))
        assert not res.applied
        assert res.originally_in_memory_order
        assert res.loop is nest

    def test_illegal_interchange_blocked(self):
        # Wavefront dependence (1, -1): interchange would reverse it.
        src = """
        PROGRAM p
        PARAMETER N = 32
        REAL A(N,N)
        DO J = 2, N
          DO I = 1, N - 1
            A(I,J) = A(I+1,J-1) + 1.0
          ENDDO
        ENDDO
        END
        """
        nest = nest_of(src)
        model = CostModel(cls=4)
        assert model.memory_order(nest) == ["J", "I"]  # already best
        res = permute_nest(nest, model)
        assert res.originally_in_memory_order

    def test_interchange_blocked_by_dependence(self):
        # A(I,J) = A(I-1,J+1): dep vector (1,-1) on (I,J); memory order
        # wants J outermost (J varies the non-contiguous dim).
        src = """
        PROGRAM p
        PARAMETER N = 32
        REAL A(N,N)
        DO I = 2, N
          DO J = 1, N - 1
            A(I,J) = A(I-1,J+1) + 1.0
          ENDDO
        ENDDO
        END
        """
        nest = nest_of(src)
        model = CostModel(cls=4)
        assert model.memory_order(nest) == ["J", "I"]
        res = permute_nest(nest, model, enable_reversal=False)
        # (1,-1) permuted to (-1,1) is illegal; greedy keeps original.
        assert not res.achieved_memory_order
        assert res.failure == "dependences"

    def test_reversal_enables_interchange(self):
        # Same dependence (1,-1): reversing J negates the second component
        # to (1, 1)... permuted (1,1) -> legal with J outermost reversed.
        src = """
        PROGRAM p
        PARAMETER N = 32
        REAL A(N,N)
        DO I = 2, N
          DO J = 1, N - 1
            A(I,J) = A(I-1,J+1) + 1.0
          ENDDO
        ENDDO
        END
        """
        nest = nest_of(src)
        res = permute_nest(nest, CostModel(cls=4), enable_reversal=True)
        assert res.applied
        assert res.order == ("J", "I")
        assert res.achieved_memory_order
        assert res.reversed_loops == ("J",)
        outer = res.loop
        assert outer.step == -1
        assert outer.lb == Affine.var("N") - 1
        assert outer.ub == Affine.constant(1)

    def test_triangular_nest_permutes(self):
        src = """
        PROGRAM p
        PARAMETER N = 16
        REAL A(N,N)
        DO I = 1, N
          DO J = 1, I
            A(I,J) = A(I,J) * 2.0
          ENDDO
        ENDDO
        END
        """
        nest = nest_of(src)
        model = CostModel(cls=4)
        assert model.memory_order(nest) == ["J", "I"]
        res = permute_nest(nest, model)
        assert res.applied and res.achieved_memory_order
        loops = list(iter_loops(res.loop))
        assert [l.var for l in loops] == ["J", "I"]
        assert str(loops[1].lb) == "J"

    def test_depth_one_nest_trivial(self):
        src = """
        PROGRAM p
        PARAMETER N = 8
        REAL A(N)
        DO I = 1, N
          A(I) = 0.0
        ENDDO
        END
        """
        res = permute_nest(nest_of(src), CostModel())
        assert not res.applied
        assert res.originally_in_memory_order

    def test_scalar_reduction_blocks_everything(self):
        src = """
        PROGRAM p
        PARAMETER N = 8
        REAL A(N,N)
        DO I = 1, N
          DO J = 1, N
            S = S + A(J,I)
          ENDDO
        ENDDO
        END
        """
        nest = nest_of(src)
        model = CostModel(cls=4)
        # Memory order wants J innermost... actually A(J,I): J is the
        # contiguous dimension, so J should be innermost: already is.
        # Force the interesting case by checking order (J, I) legality.
        res = permute_nest(nest, model)
        # Either already in memory order, or blocked by the scalar.
        assert res.loop.statements == nest.statements
