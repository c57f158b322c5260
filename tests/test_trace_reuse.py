"""Tests for trace consumers and reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CACHE2, CacheConfig, SetAssocCache
from repro.cache.reuse import COLD, ReuseDistanceAnalyzer, reuse_profile
from repro.exec import AccessBlock, compile_block_trace
from repro.exec.trace import (
    AccessCounter,
    CacheFeed,
    StrideHistogram,
    record_trace,
    replay,
)
from repro.suite import matmul


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


class TestConsumers:
    def test_access_counter(self):
        counter = AccessCounter()
        compile_block_trace(matmul(4, "IJK")).run(counter)
        assert counter.total == 4 ** 3 * 4
        assert counter.writes == 4 ** 3
        assert counter.reads == 4 ** 3 * 3

    def test_record_and_replay_matches_direct(self):
        program = matmul(8, "JKI")
        trace = record_trace(program)
        replayed = replay(trace, CACHE2)
        direct = CacheFeed(CACHE2)
        compile_block_trace(program).run(direct)
        assert replayed.hits == direct.stats.hits
        assert replayed.misses == direct.stats.misses

    def test_stride_histogram_distinguishes_orders(self):
        good = StrideHistogram()
        compile_block_trace(matmul(8, "JKI")).run(good)
        bad = StrideHistogram()
        compile_block_trace(matmul(8, "IKJ")).run(bad)
        assert good.unit_fraction() > bad.unit_fraction()

    def test_stride_top(self):
        h = StrideHistogram()
        feed(h, [0, 8, 16, 24, 1024], chunk=2)
        assert h.top(1)[0] == (8, 3)


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
        trace = record_trace(matmul(10, "JKI"))
        for address, write, _ in trace.events:
            cache.access(address, 8, write)
        # elem accesses can straddle? 8 <= 32 and aligned: no straddling.
        assert cache.stats.hits == profile.hits_for_capacity(capacity)
