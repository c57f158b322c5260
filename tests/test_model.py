"""Cost model tests, including the paper's worked examples.

Figure 2 (matrix multiply): per-reference LoopCost table with cls=4 and
the permutation ranking JKI < KJI < JIK < IJK < KIJ < IKJ.
Figure 3 (ADI): fused-nest LoopCost of 3n^2 (K inner) vs 3/4 n^2 (I inner).
Figure 7 (Cholesky): memory order KJI and full ranking.
"""

from fractions import Fraction

import pytest

from repro.frontend import parse_program
from repro.model import CONSECUTIVE, INVARIANT, NONE, CostModel, trip_poly
from repro.ir import Loop, Ref
from repro.ir.poly import Poly

N = Poly.var("N")

MATMUL = """
PROGRAM matmul
PARAMETER N = 512
REAL A(N,N), B(N,N), C(N,N)
DO J = 1, N
  DO K = 1, N
    DO I = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""

CHOLESKY = """
PROGRAM chol
PARAMETER N = 64
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

ADI_FUSED = """
PROGRAM adi
PARAMETER N = 100
REAL X(N,N), A(N,N), B(N,N)
DO I = 2, N
  DO K = 1, N
    X(I,K) = X(I,K) - X(I-1,K)*A(I,K)/B(I-1,K)
    B(I,K) = B(I,K) - A(I,K)*A(I,K)/B(I-1,K)
  ENDDO
ENDDO
END
"""


@pytest.fixture
def model():
    return CostModel(cls=4)


class TestTripPoly:
    def test_rectangular_symbolic(self):
        loop = Loop.make("I", 1, "N", [])
        assert trip_poly(loop, {"I": loop}) == N

    def test_rectangular_constant(self):
        loop = Loop.make("I", 1, 10, [])
        assert trip_poly(loop, {"I": loop}) == Poly.constant(10)

    def test_negative_step(self):
        loop = Loop.make("I", "N", 1, [], step=-1)
        assert trip_poly(loop, {"I": loop}) == N

    def test_strided(self):
        loop = Loop.make("I", 1, 100, [], step=2)
        assert trip_poly(loop, {"I": loop}) == Poly.constant(50)

    def test_triangular_resolves_to_dominant(self):
        outer = Loop.make("K", 1, "N", [])
        inner = Loop.make("J", "K+1", "N", [])
        loops = {"K": outer, "J": inner}
        # span of J is N - K; max over K in [1, N] is N - 1
        assert trip_poly(inner, loops) == N - 1

    def test_doubly_triangular(self):
        k = Loop.make("K", 1, "N", [])
        i = Loop.make("I", "K+1", "N", [])
        j = Loop.make("J", "K+1", "I", [])
        loops = {"K": k, "I": i, "J": j}
        # span I - K maximized: I -> N, K -> 1
        assert trip_poly(j, loops) == N - 1

    def test_empty_constant_loop(self):
        loop = Loop.make("I", 5, 1, [])
        assert trip_poly(loop, {"I": loop}) == Poly.constant(0)


class TestRefCostKinds(object):
    def test_kinds_matmul(self, model):
        loop_i = Loop.make("I", 1, "N", [])
        loop_j = Loop.make("J", 1, "N", [])
        c = Ref.make("C", "I", "J")
        assert model.ref_cost_kind(c, loop_i) == CONSECUTIVE
        assert model.ref_cost_kind(c, loop_j) == NONE
        b = Ref.make("B", "K", "J")
        assert model.ref_cost_kind(b, loop_i) == INVARIANT

    def test_large_stride_not_consecutive(self, model):
        loop = Loop.make("I", 1, "N", [])
        ref = Ref.make("A", "8*I")
        assert model.ref_cost_kind(ref, loop) == NONE

    def test_stride_from_loop_step(self, model):
        loop = Loop.make("I", 1, "N", [], step=8)
        ref = Ref.make("A", "I")
        assert model.ref_cost_kind(ref, loop) == NONE

    def test_reversed_loop_still_consecutive(self, model):
        loop = Loop.make("I", "N", 1, [], step=-1)
        ref = Ref.make("A", "I", "J")
        assert model.ref_cost_kind(ref, loop) == CONSECUTIVE

    def test_scalar_is_invariant(self, model):
        loop = Loop.make("I", 1, "N", [])
        assert model.ref_cost_kind(Ref.make("S"), loop) == INVARIANT


class TestMatmulFigure2(object):
    """The Figure 2 LoopCost table, cls = 4."""

    def test_ref_groups(self, model):
        prog = parse_program(MATMUL)
        nest = prog.top_loops[0]
        groups = model.groups(nest, "I")
        members = sorted(tuple(sorted(s.ref.array for s in g.members)) for g in groups)
        # C write and C read group together; A and B stand alone.
        assert members == [("A",), ("B",), ("C", "C")]

    def test_loop_costs(self, model):
        prog = parse_program(MATMUL)
        nest = prog.top_loops[0]
        costs = model.loop_costs(nest)
        n2 = N * N
        n3 = n2 * N
        assert costs["J"] == 2 * n3 + n2
        assert costs["K"] == n3 + n3 * Fraction(1, 4) + n2
        assert costs["I"] == n3 * Fraction(1, 2) + n2

    def test_memory_order_is_jki(self, model):
        prog = parse_program(MATMUL)
        assert model.memory_order(prog.top_loops[0]) == ["J", "K", "I"]

    def test_full_ranking_matches_paper(self, model):
        prog = parse_program(MATMUL)
        ranking = model.rank_permutations(prog.top_loops[0])
        expected = [
            ("J", "K", "I"),
            ("K", "J", "I"),
            ("J", "I", "K"),
            ("I", "J", "K"),
            ("K", "I", "J"),
            ("I", "K", "J"),
        ]
        assert ranking == expected


class TestCholeskyFigure7(object):
    def test_memory_order_is_kji(self, model):
        prog = parse_program(CHOLESKY)
        prog = prog.with_params({"N": 0})  # force symbolic comparison path
        prog2 = parse_program(CHOLESKY)
        assert model.memory_order(prog2.top_loops[0]) == ["K", "J", "I"]

    def test_full_ranking_matches_paper(self, model):
        prog = parse_program(CHOLESKY)
        ranking = model.rank_permutations(prog.top_loops[0])
        expected = [
            ("K", "J", "I"),
            ("J", "K", "I"),
            ("K", "I", "J"),
            ("I", "K", "J"),
            ("J", "I", "K"),
            ("I", "J", "K"),
        ]
        assert ranking == expected

    def test_groups_share_a_ik(self, model):
        # A(I,K) appears in S2 (write+read) and S3 (read): one group, and
        # its representative is the deepest occurrence (in S3).
        prog = parse_program(CHOLESKY)
        nest = prog.top_loops[0]
        groups = model.groups(nest, "I")
        aik = [
            g
            for g in groups
            if any(str(s.ref) == "A(I, K)" for s in g.members)
        ]
        assert len(aik) == 1
        assert aik[0].size >= 3
        assert aik[0].representative.sid == 2  # S3 is the deepest


class TestADIFigure3(object):
    def test_fused_costs(self, model):
        prog = parse_program(ADI_FUSED)
        nest = prog.top_loops[0]
        costs = model.loop_costs(nest)
        # The I loop runs 2..N (trip N-1); the paper's table idealizes both
        # trips to n. The shape — K costs 4x what I costs — is identical.
        assert costs["K"] == 3 * N * (N - 1)
        assert costs["I"] == 3 * N * (N - 1) * Fraction(1, 4)

    def test_group_spatial_detected(self, model):
        prog = parse_program(ADI_FUSED)
        nest = prog.top_loops[0]
        groups = model.groups(nest, "K")
        spatial = [g for g in groups if g.has_group_spatial]
        # X(I,K)/X(I-1,K) and B(I,K)/B(I-1,K) groups are group-spatial.
        assert len(spatial) == 2
        assert len(groups) == 3

    def test_memory_order_prefers_i_inner(self, model):
        prog = parse_program(ADI_FUSED)
        assert model.memory_order(prog.top_loops[0]) == ["K", "I"]


class TestImperfectNestCosts(object):
    def test_statement_outside_candidate_loop(self, model):
        # S1 sits only under K; candidate inner loop I does not enclose it.
        prog = parse_program(CHOLESKY)
        nest = prog.top_loops[0]
        costs = model.loop_costs(nest)
        # All costs positive and finite; ranking already validated above.
        for poly in costs.values():
            assert poly.magnitude() > 0
