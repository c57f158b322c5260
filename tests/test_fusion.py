"""Tests for loop fusion: compatibility, legality, profitability, FuseAll."""

import pytest

from repro.frontend import parse_program
from repro.ir import Loop, ProgramBuilder, iter_loops
from repro.ir.visit import rename_loops
from repro.model import CostModel
from repro.transforms import (
    compatible_depth,
    fuse_adjacent,
    fuse_all,
    fuse_pair,
    fusion_preventing,
)
from repro.verify.oracles import run_state

ADI_DISTRIBUTED = """
PROGRAM adi
PARAMETER N = 50
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
"""


def loops_of(source):
    return parse_program(source).top_loops


class TestCompatibleDepth:
    def test_identical_headers(self):
        a = Loop.make("I", 1, "N", [])
        b = Loop.make("J", 1, "N", [])
        assert compatible_depth(a, b) == 1

    def test_different_bounds(self):
        a = Loop.make("I", 1, "N", [])
        b = Loop.make("J", 2, "N", [])
        assert compatible_depth(a, b) == 0

    def test_different_steps(self):
        a = Loop.make("I", 1, "N", [], step=1)
        b = Loop.make("J", 1, "N", [], step=2)
        assert compatible_depth(a, b) == 0

    def test_nested_compatibility(self):
        a = Loop.make("I", 1, "N", [Loop.make("J", 1, "N", [])])
        b = Loop.make("K", 1, "N", [Loop.make("L", 1, "N", [])])
        assert compatible_depth(a, b) == 2

    def test_triangular_inner_follows_renaming(self):
        # DO I / DO J = 1, I  vs  DO K / DO L = 1, K: compatible at depth 2
        a = Loop.make("I", 1, "N", [Loop.make("J", 1, "I", [])])
        b = Loop.make("K", 1, "N", [Loop.make("L", 1, "K", [])])
        assert compatible_depth(a, b) == 2

    def test_imperfect_stops_descent(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 4
            REAL A(N,N), B(N,N)
            DO I = 1, N
              A(I,1) = 0.0
              DO J = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            DO K = 1, N
              DO L = 1, N
                B(K,L) = 1.0
              ENDDO
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert compatible_depth(a, b) == 1


class TestFusePair:
    def test_bodies_concatenated_with_renaming(self):
        prog = parse_program(ADI_DISTRIBUTED)
        outer = prog.top_loops[0]
        first, second = outer.inner_loops
        fused = fuse_pair(first, second, 1)
        assert len(fused.statements) == 2
        # Second body's K_2 renamed to K.
        arrays = [str(s.lhs) for s in fused.statements]
        assert arrays == ["X(I, K)", "B(I, K)"]

    def test_deep_fusion(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), B(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            DO K = 1, N
              DO L = 1, N
                B(K,L) = A(K,L)
              ENDDO
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        fused = fuse_pair(a, b, 2)
        assert fused.is_perfect_nest()
        assert [l.var for l in iter_loops(fused)] == ["I", "J"]
        assert len(fused.statements) == 2

    def test_inner_loop_does_not_capture_renamed_index(self):
        # J of the second nest becomes I; its inner DO I must not capture
        # the renamed references, which would read A(I+1) up to A(8).
        # The builder and the parser refuse a reused index, so the inner
        # loop is renamed to I after the build.
        b = ProgramBuilder("p")
        I, J, K = b.indices("I", "J", "K")
        A, B, C = b.array("A", (3,)), b.array("B", (7,)), b.array("C", (2,))
        with b.loop(I, 1, 2):
            b.assign(C[I], B[I])
        with b.loop(J, 1, 2):
            with b.loop(K, 2, 7):
                b.assign(A[J + 1], A[J + 1] + B[K])
        prog = b.build()
        first, second = prog.top_loops
        prog = prog.with_body((first, rename_loops(second, {"K": "I"})))
        first, second = prog.top_loops
        assert compatible_depth(first, second) == 1
        assert not fusion_preventing(first, second, 1)
        fused = fuse_pair(first, second, 1)
        assert [l.var for l in iter_loops(fused)] == ["I", "I_2"]
        assert str(fused.statements[1].lhs) == "A(I+1)"
        assert run_state(prog.with_body((fused,))) == run_state(prog)


class TestFusionPreventing:
    def test_forward_loop_independent_ok(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N), C(N)
            DO I = 1, N
              A(I) = B(I)
            ENDDO
            DO J = 1, N
              C(J) = A(J)
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert not fusion_preventing(a, b, 1)

    def test_backward_dependence_prevents(self):
        # Second loop reads A(J+1): after fusion iteration J would read a
        # value the first loop has not written yet.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), C(N)
            DO I = 1, N
              A(I) = I * 1.0
            ENDDO
            DO J = 1, N - 1
              C(J) = A(J+1)
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        # Headers differ (N vs N-1) so depth 0 in practice; force the
        # legality question at depth 1 anyway.
        assert fusion_preventing(a, b, 1)

    def test_scalar_carried_across_nests_prevents(self):
        # S has no subscript: the cross-nest vector is a leading '*', whose
        # '>' case runs from the second body back into the first.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N)
            DO I = 1, N
              S = A(I)
            ENDDO
            DO J = 1, N
              B(J) = S
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert fusion_preventing(a, b, 1)

    def test_backward_anti_dependence_prevents(self):
        # Fused, iteration J would overwrite A(J) before iteration J+1 of
        # the first body reads it as A(I-1).
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), C(N)
            DO I = 2, N
              C(I) = A(I-1)
            ENDDO
            DO J = 2, N
              A(J) = 1.0
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert fusion_preventing(a, b, 1)

    def test_reversal_at_inner_level_only(self):
        # A(I2,J2+1) is written by the first body at a later J: fusing the
        # outer loop alone keeps that order, fusing both levels reverses it.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), C(N,N)
            DO I = 1, N
              DO J = 1, N - 1
                A(I,J) = 1.0
              ENDDO
            ENDDO
            DO I2 = 1, N
              DO J2 = 1, N - 1
                C(I2,J2) = A(I2,J2+1)
              ENDDO
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert compatible_depth(a, b) == 2
        assert not fusion_preventing(a, b, 1)
        assert fusion_preventing(a, b, 2)

    def test_backward_distance_ok(self):
        # Reading A(J-1) after fusion is fine: already computed.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), C(N)
            DO I = 1, N
              A(I) = I * 1.0
            ENDDO
            DO J = 2, N
              C(J) = A(J-1)
            ENDDO
            END
            """
        )
        a, b = prog.top_loops
        assert not fusion_preventing(a, b, 1)


class TestFuseAdjacent:
    def test_adi_inner_loops_fuse(self):
        prog = parse_program(ADI_DISTRIBUTED)
        outer = prog.top_loops[0]
        result = fuse_adjacent(outer.body, CostModel(cls=4))
        assert result.candidates == 2
        assert result.fused == 1
        assert len(result.items) == 1
        fused = result.items[0]
        assert len(fused.statements) == 2

    def test_no_fusion_without_benefit(self):
        # Disjoint arrays, no shared data: no locality benefit.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N)
            DO I = 1, N
              A(I) = 1.0
            ENDDO
            DO J = 1, N
              B(J) = 2.0
            ENDDO
            END
            """
        )
        result = fuse_adjacent(prog.body, CostModel(cls=4))
        assert result.fused == 0
        assert len(result.items) == 2

    def test_fusion_with_shared_array(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N), C(N)
            DO I = 1, N
              B(I) = A(I) * 2.0
            ENDDO
            DO J = 1, N
              C(J) = A(J) + B(J)
            ENDDO
            END
            """
        )
        result = fuse_adjacent(prog.body, CostModel(cls=4))
        assert result.fused == 1
        assert len(result.items) == 1

    def test_statement_barrier(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N)
            DO I = 1, N
              B(I) = A(I)
            ENDDO
            S = 0.0
            DO J = 1, N
              A(J) = B(J) + S
            ENDDO
            END
            """
        )
        result = fuse_adjacent(prog.body, CostModel(cls=4))
        assert result.fused == 0
        assert len(result.items) == 3

    def test_incompatible_not_fused(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N)
            DO I = 1, N
              B(I) = A(I)
            ENDDO
            DO J = 2, N
              A(J) = B(J)
            ENDDO
            END
            """
        )
        result = fuse_adjacent(prog.body, CostModel(cls=4))
        assert result.fused == 0
        assert result.candidates == 0


class TestFuseAll:
    def test_adi_becomes_perfect(self):
        prog = parse_program(ADI_DISTRIBUTED)
        outer = prog.top_loops[0]
        fused = fuse_all(outer)
        assert fused is not None
        assert fused.is_perfect_nest()
        assert [l.var for l in iter_loops(fused)] == ["I", "K"]

    def test_mixed_body_fails(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N)
            DO I = 1, N
              A(I,1) = 0.0
              DO J = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            END
            """
        )
        assert fuse_all(prog.top_loops[0]) is None

    def test_incompatible_siblings_fail(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 0.0
              ENDDO
              DO K = 2, N
                A(I,K) = A(I,K) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        assert fuse_all(prog.top_loops[0]) is None

    def test_already_perfect_passthrough(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 0.0
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        assert fuse_all(nest) == nest
