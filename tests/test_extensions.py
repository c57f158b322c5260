"""Tests for the framework extensions: tiling (§6), scalar replacement
(step 3 of the paper's optimization framework), and skewing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CACHE2, CacheConfig
from repro.errors import TransformError
from repro.exec import Interpreter, Machine, run_program, simulate
from repro.frontend import parse_program
from repro.ir import iter_loops, pretty_program
from repro.model import CostModel
from repro.suite import matmul
from repro.transforms import (
    choose_tile_loops,
    scalar_replace_program,
    skew_loop,
    strip_mine,
    tile_nest,
)


class TestStripMine:
    def test_basic(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 16
            REAL A(N)
            DO I = 1, 16
              A(I) = A(I) + 1.0
            ENDDO
            END
            """
        )
        loop = prog.top_loops[0]
        mined = strip_mine(loop, 4, {"I"})
        assert mined.var == "I_T"
        assert mined.step == 4
        inner = mined.body[0]
        assert inner.var == "I"
        assert str(inner.lb) == "I_T"
        assert str(inner.ub) == "I_T+3"

    def test_iteration_space_preserved(self):
        loop = parse_program(
            "PROGRAM p\nREAL A(24)\nDO I = 1, 24\nA(I) = 1.0\nENDDO\nEND"
        ).top_loops[0]
        mined = strip_mine(loop, 6, {"I"})
        visited = []
        for outer_value in mined.iter_values({}):
            env = {mined.var: outer_value}
            for inner_value in mined.body[0].iter_values(env):
                visited.append(inner_value)
        assert visited == list(range(1, 25))

    def test_indivisible_trip_rejected(self):
        loop = parse_program(
            "PROGRAM p\nREAL A(10)\nDO I = 1, 10\nA(I) = 1.0\nENDDO\nEND"
        ).top_loops[0]
        with pytest.raises(TransformError):
            strip_mine(loop, 4, {"I"})

    def test_symbolic_bounds_rejected(self):
        loop = parse_program(
            "PROGRAM p\nPARAMETER N = 8\nREAL A(N)\nDO I = 1, N\nA(I) = 1.0\nENDDO\nEND"
        ).top_loops[0]
        with pytest.raises(TransformError):
            strip_mine(loop, 4, {"I"})


def const_matmul(n):
    # matmul with constant bounds so strip-mining applies.
    return parse_program(
        f"""
        PROGRAM mm
        REAL A({n},{n}), B({n},{n}), C({n},{n})
        DO J = 1, {n}
          DO K = 1, {n}
            DO I = 1, {n}
              C(I,J) = C(I,J) + A(I,K)*B(K,J)
            ENDDO
          ENDDO
        ENDDO
        END
        """
    )


def tiled_matmul(n, tiles):
    prog = const_matmul(n)
    result = tile_nest(prog.top_loops[0], tiles)
    return prog, prog.with_body((result.loop,)), result


class TestTileNest:
    def test_structure(self):
        _, tiled, result = tiled_matmul(16, {"J": 8, "K": 8})
        loops = [l.var for l in iter_loops(tiled)]
        assert loops == ["J_T", "K_T", "J", "K", "I"]
        assert result.tile_vars == ("J_T", "K_T")

    def test_semantics_preserved(self):
        original, tiled, _ = tiled_matmul(12, {"J": 4, "K": 4})
        before = run_program(original)
        after = run_program(tiled)
        np.testing.assert_allclose(before["C"], after["C"], rtol=1e-12)

    def test_three_way_tiling_semantics(self):
        original, tiled, _ = tiled_matmul(8, {"J": 4, "K": 4, "I": 4})
        before = run_program(original)
        after = run_program(tiled)
        np.testing.assert_allclose(before["C"], after["C"], rtol=1e-12)

    def test_non_permutable_band_rejected(self):
        prog = parse_program(
            """
            PROGRAM p
            REAL A(34, 34)
            DO I = 2, 33
              DO J = 1, 32
                A(I,J) = A(I-1,J+1) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        with pytest.raises(TransformError, match="permutable"):
            tile_nest(prog.top_loops[0], {"I": 4})

    def test_tiling_improves_large_matmul(self):
        # At N=64 on the 8KB cache, B(K,J) thrashes between J iterations;
        # tiling K keeps the B tile resident.
        original, tiled, _ = tiled_matmul(64, {"K": 16, "J": 16})
        machine = Machine(cache=CACHE2, miss_penalty=20)
        before = simulate(original, machine)
        after = simulate(tiled, machine)
        assert after.cache.misses < before.cache.misses
        assert after.cycles < before.cycles

    def test_choose_tile_loops_matmul(self):
        # B(K,J) is invariant w.r.t. I; C(I,J) invariant w.r.t. K;
        # A(I,K) invariant w.r.t. J -- outer loops J and K both carry
        # invariant reuse and are tiling candidates.
        nest = matmul(16, "JKI").top_loops[0]
        assert choose_tile_loops(nest, CostModel(cls=4)) == ["J", "K"]


class TestScalarReplacement:
    def test_invariant_read_promoted(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
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
        )
        result = scalar_replace_program(prog)
        assert result.replaced == 1  # B(K,J) is invariant w.r.t. I
        text = pretty_program(result.program)
        assert "T_B = B(K, J)" in text

    def test_semantics_preserved(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
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
        )
        result = scalar_replace_program(prog)
        before = run_program(prog)
        after = run_program(result.program)
        np.testing.assert_allclose(before["C"], after["C"], rtol=1e-12)

    def test_written_invariant_stored_back(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL S(N), A(N,N)
            DO J = 1, N
              DO I = 1, N
                S(J) = S(J) + A(I,J)
              ENDDO
            ENDDO
            END
            """
        )
        result = scalar_replace_program(prog)
        assert result.replaced == 1
        before = run_program(prog)
        after = run_program(result.program)
        np.testing.assert_allclose(before["S"], after["S"], rtol=1e-12)
        # Store-back statement present after the inner loop.
        text = pretty_program(result.program)
        assert "S(J) = T_S" in text

    def test_aliasing_blocks_promotion(self):
        # A(1,J) and A(I,J) may alias at I=1: no promotion.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N)
            DO J = 1, N
              DO I = 1, N
                A(I,J) = A(1,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        assert scalar_replace_program(prog).replaced == 0

    def test_reduces_memory_traffic(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 16
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
        )
        result = scalar_replace_program(prog)
        before = simulate(prog, compiled=False)
        after = simulate(result.program, compiled=False)
        # One of the four references per iteration becomes scalar traffic.
        assert after.accesses < before.accesses

    def test_traffic_and_cycles_at_48(self):
        # Promoting the I-invariant B(K,J) removes a quarter of matmul's
        # memory references; the hoisted pre-loads add one B read per
        # (J, K) pair.
        program = const_matmul(48)
        result = scalar_replace_program(program)
        machine = Machine(cache=CACHE2, miss_penalty=20)
        before = simulate(program, machine)
        after = simulate(result.program, machine)
        assert result.replaced == 1
        assert after.accesses == before.accesses * 3 // 4 + 48 * 48
        assert after.cycles < before.cycles


class TestSkewing:
    def test_semantics_preserved(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N,N)
            DO I = 2, N
              DO J = 2, N
                A(I,J) = A(I-1,J) + A(I,J-1)
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        skewed = skew_loop(nest, "J", 1)
        before = run_program(prog)
        after = run_program(prog.with_body((skewed,)))
        np.testing.assert_allclose(before["A"], after["A"], rtol=1e-12)

    def test_bounds_and_subscripts_shift(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = A(I,J) * 2.0
              ENDDO
            ENDDO
            END
            """
        )
        skewed = skew_loop(prog.top_loops[0], "J", 2)
        inner = skewed.body[0]
        assert str(inner.lb) == "2*I+1"
        assert str(inner.ub) == "2*I+N"
        assert str(skewed.statements[0].lhs) == "A(I, -2*I+J)"

    def test_zero_factor_noop(self):
        nest = matmul(8, "IJK").top_loops[0]
        assert skew_loop(nest, "J", 0) is nest

    def test_unknown_inner_rejected(self):
        nest = matmul(8, "IJK").top_loops[0]
        with pytest.raises(TransformError):
            skew_loop(nest, "Z", 1)

    def test_skewing_enables_interchange(self):
        # Wavefront deps (1,-1) and (1,1) block interchange; after
        # skewing J by 1, the components become (1,0) and (1,2): fully
        # permutable.
        from repro.transforms import constraining_vectors, order_is_legal

        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 12
            REAL A(N,N)
            DO I = 2, N - 1
              DO J = 2, N - 1
                A(I,J) = A(I-1,J+1) + A(I-1,J-1)
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        assert not order_is_legal(constraining_vectors(nest), [1, 0])
        skewed = skew_loop(nest, "J", 1)
        assert order_is_legal(constraining_vectors(skewed), [1, 0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-3, 3))
    def test_skew_any_factor_preserves_semantics(self, factor):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), B(N,N)
            DO I = 2, N
              DO J = 2, N
                B(I,J) = A(I-1,J-1) + B(I,J-1)
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        skewed = skew_loop(nest, "J", factor)
        before = run_program(prog)
        after = run_program(prog.with_body((skewed,)))
        for name in before:
            np.testing.assert_allclose(before[name], after[name], rtol=1e-12)
