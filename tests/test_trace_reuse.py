"""Tests for block-trace counts and reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, SetAssocCache
from repro.cache.reuse import COLD, ReuseDistanceAnalyzer, reuse_profile
from repro.exec import AccessBlock, compile_block_trace
from repro.model import CostModel
from repro.suite import get_entry, matmul
from repro.transforms import compound


def feed(consumer, addresses, chunk: int = 7):
    """Stream byte addresses to a block consumer in ``chunk``-sized blocks,
    so runs straddle block seams."""
    for start in range(0, len(addresses), chunk):
        part = np.array(addresses[start : start + chunk], dtype=np.int64)
        n = part.shape[0]
        consumer.on_block(
            AccessBlock(
                part,
                np.full(n, 8, dtype=np.int64),
                np.zeros(n, dtype=bool),
                np.zeros(n, dtype=np.int64),
            )
        )


def trace_addresses(program) -> np.ndarray:
    """The program's whole address stream, block seams joined."""
    blocks = []
    compile_block_trace(program).run(lambda block: blocks.append(block.addresses.copy()))
    return np.concatenate(blocks)


class TestConsumers:
    def test_access_counter(self):
        accesses = writes = 0

        def count(block):
            nonlocal accesses, writes
            accesses += len(block)
            writes += int(np.count_nonzero(block.writes))

        compile_block_trace(matmul(4, "IJK")).run(count)
        assert accesses == 4 ** 3 * 4
        assert writes == 4 ** 3
        assert accesses - writes == 4 ** 3 * 3

    def test_stride_histogram_distinguishes_orders(self):
        # Memory order (I innermost) walks columns at unit stride.
        def unit_share(program):
            return float(np.mean(np.diff(trace_addresses(program)) == 8))

        assert unit_share(matmul(8, "JKI")) > unit_share(matmul(8, "IKJ"))


class TestReuseDistance:
    def test_simple_sequence(self):
        analyzer = ReuseDistanceAnalyzer(line=8)
        # lines: A B A -> A cold, B cold, A reuse distance 1 (only B between)
        feed(analyzer, [0, 8, 0])
        hist = analyzer.profile.histogram
        assert hist[COLD] == 2
        assert hist[1] == 1

    def test_immediate_reuse_distance_zero(self):
        analyzer = ReuseDistanceAnalyzer(line=8)
        feed(analyzer, [0, 0], chunk=1)
        assert analyzer.profile.histogram[0] == 1

    def test_line_granularity(self):
        analyzer = ReuseDistanceAnalyzer(line=16)
        feed(analyzer, [0, 8])  # same 16-byte line: distance 0
        assert analyzer.profile.histogram[0] == 1

    def test_hits_for_capacity_monotone(self):
        profile = reuse_profile(matmul(8, "IJK"), line=32)
        hits = [profile.hits_for_capacity(c) for c in (1, 4, 16, 64, 256)]
        assert hits == sorted(hits)

    def test_memory_order_shifts_profile_left(self):
        good = reuse_profile(matmul(12, "JKI"), line=32)
        bad = reuse_profile(matmul(12, "IKJ"), line=32)
        # At a small capacity, the memory-order trace hits more.
        assert good.hit_rate_for_capacity(64) > bad.hit_rate_for_capacity(64)

    def test_compound_shifts_reuse_short(self):
        """Compound moves reuse mass toward short distances, independent
        of any particular cache geometry. Profiles may cross at a single
        capacity (a transformed program can trade a little long-distance
        reuse for much more short-distance reuse), so the check is no
        material loss plus clear wins."""
        capacity = 256  # lines = 8KB at 32B
        rows = []
        for name in ("arc2d_like", "jacobi", "vpenta_like"):
            program = get_entry(name).program(32)
            before = reuse_profile(program, line=32)
            after = reuse_profile(compound(program, CostModel(cls=4)).program, line=32)
            rows.append(
                (
                    before.hit_rate_for_capacity(capacity),
                    after.hit_rate_for_capacity(capacity),
                    before.percentile(0.9),
                    after.percentile(0.9),
                )
            )
        assert all(h1 >= h0 - 0.02 for h0, h1, _, _ in rows)
        assert any(h1 > h0 + 0.03 for h0, h1, _, _ in rows)
        assert all(p1 <= p0 for _, _, p0, p1 in rows)
        assert any(p1 < p0 / 4 for _, _, p0, p1 in rows)

    def test_percentile(self):
        analyzer = ReuseDistanceAnalyzer(line=8)
        feed(analyzer, [0, 8, 0, 8, 0, 8])
        # All warm reuses have distance 1.
        assert analyzer.profile.percentile(0.9) == 1

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            ReuseDistanceAnalyzer(line=24)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=300), st.sampled_from([1, 2, 4, 8]))
    def test_mattson_equivalence(self, lines, capacity):
        """hits(fully-assoc LRU, capacity C) == reuses with distance < C."""
        analyzer = ReuseDistanceAnalyzer(line=16)
        cache = SetAssocCache(
            CacheConfig("fa", size=16 * capacity, assoc=capacity, line=16)
        )
        addresses = [line * 16 for line in lines]
        feed(analyzer, addresses)
        for address in addresses:
            cache.access(address)
        assert cache.stats.hits == analyzer.profile.hits_for_capacity(capacity)

    def test_program_level_mattson(self):
        profile = reuse_profile(matmul(10, "JKI"), line=32)
        capacity = 32  # lines
        cache = SetAssocCache(
            CacheConfig("fa", size=32 * capacity, assoc=capacity, line=32)
        )
        compile_block_trace(matmul(10, "JKI")).run(
            lambda block: cache.access_block(block.addresses, block.sizes)
        )
        # 8-byte elements are aligned within 32-byte lines: no straddling.
        assert cache.stats.hits == profile.hits_for_capacity(capacity)
