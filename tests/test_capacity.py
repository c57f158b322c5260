"""Tests for the fusion cache-capacity guard (paper §5.5 future work)."""

import pytest

from repro.frontend import parse_program
from repro.model import CostModel
from repro.model.capacity import fits_in_cache, inner_loop_footprint
from repro.transforms import compound, fuse_adjacent, fuse_pair

SOURCE = """
PROGRAM p
PARAMETER N = 256
REAL A(N), B(N), C(N), D(N), E(N), F(N)
DO I = 1, N
  C(I) = A(I) + B(I)
ENDDO
DO J = 1, N
  F(J) = A(J) + D(J) + E(J)
ENDDO
END
"""


@pytest.fixture
def program():
    return parse_program(SOURCE)


class TestFootprint:
    def test_footprint_scales_with_arrays(self, program):
        model = CostModel(cls=4)
        first, second = program.top_loops
        env = program.param_env
        f1 = inner_loop_footprint(first, model, line_bytes=32, env=env)
        f2 = inner_loop_footprint(second, model, line_bytes=32, env=env)
        # 3 consecutive groups vs 4: the second nest touches more.
        assert f2 > f1
        # 3 arrays x 256 elements / 4-elem lines x 32B = 6144 bytes.
        assert f1 == pytest.approx(3 * 256 / 4 * 32)

    def test_fits_in_cache(self, program):
        model = CostModel(cls=4)
        first = program.top_loops[0]
        env = program.param_env
        assert fits_in_cache(first, model, 64 * 1024, 32, env)
        assert not fits_in_cache(first, model, 4 * 1024, 32, env)


class TestFusionCapacityGuard:
    def test_fusion_without_guard(self, program):
        result = fuse_adjacent(program.body, CostModel(cls=4))
        assert result.fused == 1

    def test_tiny_cache_vetoes_fusion(self, program):
        # The fused body sweeps 6 arrays; with a cache that can only hold
        # ~4 arrays' worth of lines, the capacity analysis vetoes fusion.
        result = fuse_adjacent(
            program.body,
            CostModel(cls=4),
            cache_capacity=(16 * 1024, 32),
            param_env=program.param_env,
        )
        assert result.fused == 0

    def test_big_cache_allows_fusion(self, program):
        result = fuse_adjacent(
            program.body,
            CostModel(cls=4),
            cache_capacity=(1024 * 1024, 32),
            param_env=program.param_env,
        )
        assert result.fused == 1

    def test_guard_reduces_fusion_count_on_suite(self):
        from repro.suite import suite_entries

        model = CostModel(cls=4)
        free = guarded = 0
        for entry in suite_entries():
            prog = entry.program(24)
            free += fuse_adjacent(prog.body, model).fused
            guarded += fuse_adjacent(
                prog.body,
                model,
                cache_capacity=(2 * 1024, 32),
                param_env=prog.param_env,
            ).fused
        assert guarded <= free


class TestCompoundWithCapacity:
    def test_compound_accepts_capacity(self, program):
        free = compound(program, CostModel(cls=4))
        guarded = compound(
            program, CostModel(cls=4), cache_capacity=(16 * 1024, 32)
        )
        assert free.nests_fused == 1
        assert guarded.nests_fused == 0
        # Semantics unchanged either way.
        import numpy as np
        from repro.exec import run_program

        a = run_program(program)
        b = run_program(guarded.program)
        for name in a:
            np.testing.assert_allclose(a[name], b[name], rtol=1e-12)


class TestVetoUsesModelTemporalMax:
    # A(1,J) and A(1,J+2) form one temporal group only when temporal_max
    # admits the distance 2, so the merged footprint depends on it.
    SOURCE = """
    PROGRAM p
    PARAMETER N = 64
    REAL A(N,N), B(N), C(N), D(N)
    DO J = 1, N-2
      B(J) = A(1,J) + D(J)
    ENDDO
    DO K = 1, N-2
      C(K) = A(1,K+2) + D(K)
    ENDDO
    END
    """

    def test_footprint_depends_on_temporal_max(self):
        program = parse_program(self.SOURCE)
        fused = fuse_pair(*program.top_loops, 1)
        env = program.param_env
        strict = inner_loop_footprint(fused, CostModel(cls=4, temporal_max=0), 32, env)
        loose = inner_loop_footprint(fused, CostModel(cls=4), 32, env)
        assert 2 * loose <= 8 * 1024 < 2 * strict

    def test_compound_veto_scores_with_model_temporal_max(self):
        program = parse_program(self.SOURCE)
        model = CostModel(cls=4, temporal_max=0)
        # 8KB holds the merged sweep only if A's two refs share lines.
        assert compound(program, model, cache_capacity=(8 * 1024, 32)).nests_fused == 0
        assert compound(program, model, cache_capacity=(32 * 1024, 32)).nests_fused == 1
