"""Tests for the cache hierarchy/TLB and unroll-and-jam."""

import numpy as np
import pytest

from repro.cache import CacheConfig, Hierarchy, tlb_config
from repro.cache.hierarchy import TLB_LEVEL_NAME
from repro.errors import TransformError
from repro.exec import compile_block_trace, run_program
from repro.frontend import parse_program
from repro.transforms import unroll_and_jam, unroll_and_jam_program

L1 = CacheConfig("l1", size=1024, assoc=2, line=32)
L2 = CacheConfig("l2", size=8192, assoc=4, line=32)


class TestHierarchy:
    def test_l1_hit_stops_probe(self):
        h = Hierarchy([L1, L2])
        h.access(0x0)
        assert h.access(0x0) == 0
        result = h.result
        assert result.levels["l1"].hits == 1
        assert result.levels["l2"].accesses == 1  # only the first miss

    def test_miss_falls_through(self):
        h = Hierarchy([L1, L2])
        assert h.access(0x0) == 2  # cold everywhere -> memory
        # Touch enough lines to evict 0x0 from tiny L1 but not from L2.
        for i in range(1, 64):
            h.access(i * 32)
        level = h.access(0x0)
        assert level == 1  # L1 miss, L2 hit

    def test_memory_cycles(self):
        h = Hierarchy([L1, L2])
        h.access(0x0)
        cycles = h.result.memory_cycles({"l1": 10, "l2": 100})
        assert cycles == 110  # one miss at each level

    def test_tlb_probed_every_access(self):
        h = Hierarchy([L1], tlb=tlb_config(entries=4, page=4096))
        h.access(0x0)
        h.access(0x0)
        result = h.result
        assert result.tlb is not None
        assert result.tlb.accesses == 2
        assert result.tlb.hits == 1

    def test_tlb_thrashing_detectable(self):
        # Touch 8 pages round-robin with a 4-entry TLB: every access a miss.
        h = Hierarchy([L2], tlb=tlb_config(entries=4, page=4096))
        for _ in range(4):
            for page in range(8):
                h.access(page * 4096)
        tlb = h.result.tlb
        assert tlb.hit_rate() == 0.0

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            Hierarchy([])

    def test_user_level_named_tlb_allowed(self):
        # The TLB result key is reserved; a data level called "tlb" is a
        # legitimate (if odd) name and must not collide with it.
        level = CacheConfig("tlb", size=1024, assoc=2, line=32)
        h = Hierarchy([level], tlb=tlb_config(entries=4, page=4096))
        h.access(0x0)
        result = h.result
        assert result.levels["tlb"].accesses == 1
        assert result.tlb is not None
        assert result.tlb.accesses == 1
        assert result.tlb is not result.levels["tlb"]

    def test_reserved_tlb_level_name_rejected(self):
        from repro.errors import ReproError

        clash = CacheConfig(TLB_LEVEL_NAME, size=1024, assoc=2, line=32)
        with pytest.raises(ReproError):
            Hierarchy([clash])


UAJ_SOURCE = """
PROGRAM p
REAL A(16,16), B(16,16), C(16,16)
DO J = 1, 16
  DO I = 1, 16
    C(I,J) = C(I,J) + A(I,J) * B(J,I)
  ENDDO
ENDDO
END
"""


class TestUnrollAndJam:
    def test_structure(self):
        prog = parse_program(UAJ_SOURCE)
        unrolled = unroll_and_jam(prog.top_loops[0], 4)
        assert unrolled.step == 4
        inner = unrolled.body[0]
        assert len(inner.body) == 4  # four jammed copies
        subs = [str(s.lhs) for s in inner.body]
        assert subs == ["C(I, J)", "C(I, J+1)", "C(I, J+2)", "C(I, J+3)"]

    def test_semantics_preserved(self):
        prog = parse_program(UAJ_SOURCE)
        transformed = unroll_and_jam_program(prog, "J", 4)
        before = run_program(prog)
        after = run_program(transformed)
        np.testing.assert_allclose(before["C"], after["C"], rtol=1e-12)

    def test_semantics_with_inner_recurrence(self):
        # Inner-carried dependence is fine for unroll-and-jam.
        src = """
        PROGRAM p
        REAL A(18,16)
        DO J = 1, 16
          DO I = 2, 17
            A(I,J) = A(I-1,J) + 1.0
          ENDDO
        ENDDO
        END
        """
        prog = parse_program(src)
        transformed = unroll_and_jam_program(prog, "J", 2)
        before = run_program(prog)
        after = run_program(transformed)
        np.testing.assert_allclose(before["A"], after["A"], rtol=1e-12)

    def test_illegal_interchange_style_dependence_rejected(self):
        # (1, -1) dependence: jamming would read a value before it is
        # written.
        src = """
        PROGRAM p
        REAL A(20,20)
        DO I = 2, 17
          DO J = 1, 16
            A(I,J) = A(I-1,J+1) + 1.0
          ENDDO
        ENDDO
        END
        """
        prog = parse_program(src)
        with pytest.raises(TransformError):
            unroll_and_jam(prog.top_loops[0], 2)

    def test_indivisible_trip_rejected(self):
        src = UAJ_SOURCE
        prog = parse_program(src)
        with pytest.raises(TransformError):
            unroll_and_jam(prog.top_loops[0], 3)

    def test_factor_one_noop(self):
        prog = parse_program(UAJ_SOURCE)
        nest = prog.top_loops[0]
        assert unroll_and_jam(nest, 1) is nest

    def test_reduces_b_traffic_with_scalar_replacement(self):
        # After unroll-and-jam by 4, B(J,I)..B(J+3,I) are distinct refs,
        # but A(I,J+k)'s four columns and the inner-loop-invariant rows of
        # B become register candidates; at minimum the access count per
        # useful flop drops after scalar replacement of invariant refs.
        from repro.transforms import scalar_replace_program

        prog = parse_program(
            """
            PROGRAM p
            REAL A(16,16), B(16,16), C(16,16)
            DO J = 1, 16
              DO K = 1, 16
                DO I = 1, 16
                  C(I,J) = C(I,J) + A(I,K) * B(K,J)
                ENDDO
              ENDDO
            ENDDO
            END
            """
        )
        transformed = unroll_and_jam_program(prog, "J", 4)
        replaced = scalar_replace_program(transformed)
        assert replaced.replaced >= 4  # B(K,J)..B(K,J+3) all invariant

        def count(program):
            sizes = []
            compile_block_trace(program).run(lambda block: sizes.append(len(block)))
            return sum(sizes)

        before = count(prog)
        after = count(replaced.program)
        # Same work, fewer memory references per iteration.
        assert after < before

        before_vals = run_program(prog)
        after_vals = run_program(replaced.program)
        np.testing.assert_allclose(
            before_vals["C"], after_vals["C"], rtol=1e-12
        )
