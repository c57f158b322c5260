"""Concurrent-client behaviour: cache hit rates and single-flight dedup."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.tier1


def nest(scale: int) -> str:
    return (
        "PROGRAM t\n"
        f"PARAMETER N = {scale}\n"
        "REAL A(N,N), B(N,N)\n"
        "DO J = 1, N\n"
        "  DO I = 1, N\n"
        "    A(I,J) = B(J,I) + 1.0\n"
        "  ENDDO\n"
        "ENDDO\n"
        "END\n"
    )


class TestCacheUnderConcurrency:
    def test_hit_rate_across_concurrent_clients(self, server):
        """4 clients x 8 requests over 4 distinct nests: 4 misses total."""
        sources = [nest(16 + 8 * i) for i in range(4)]

        def hammer(worker: int) -> list[str]:
            states = []
            for i in range(8):
                reply = server.client.optimize(sources[(worker + i) % 4])
                assert reply.status == 200
                states.append(reply.cache_state)
            return states

        with ThreadPoolExecutor(4) as pool:
            all_states = [s for states in pool.map(hammer, range(4)) for s in states]
        metrics = server.client.metrics().payload
        # A concurrent requester may probe the cache before the leader
        # fills it (an extra counted miss), but it coalesces onto the
        # leader's future — the number of *computations* is exact.
        assert metrics["singleflight"]["led"] == 4
        assert metrics["cache"]["hits"] + metrics["cache"]["misses"] == 32
        assert metrics["cache"]["hits"] >= 32 - 4 - metrics["singleflight"]["coalesced"]
        assert all_states.count("hit") == metrics["cache"]["hits"]

    def test_eviction_keeps_serving(self, server_factory):
        """A 2-entry cache cycles 4 nests: every reply stays correct."""
        handle = server_factory(cache_cap=2)
        sources = [nest(16 + 8 * i) for i in range(4)]
        for _ in range(3):
            for source in sources:
                assert handle.client.optimize(source).status == 200
        stats = handle.client.metrics().payload["cache"]
        assert stats["evictions"] > 0
        assert stats["size"] <= 2


class TestSingleFlight:
    def test_identical_inflight_requests_coalesce(self, server):
        """N concurrent identical misses: one leader, N-1 followers."""
        source = nest(24)
        workers = 6

        def call(_):
            # The sleep holds the leader in flight long enough for every
            # follower to arrive and join its future.
            return server.client.optimize(source, fault="sleep:0.4")

        with ThreadPoolExecutor(workers) as pool:
            replies = list(pool.map(call, range(workers)))
        assert all(reply.status == 200 for reply in replies)
        bodies = {reply.body for reply in replies}
        assert len(bodies) == 1
        flight = server.client.metrics().payload["singleflight"]
        assert flight["led"] == 1
        assert flight["coalesced"] == workers - 1

    def test_distinct_requests_do_not_coalesce(self, server):
        sources = [nest(16 + 8 * i) for i in range(3)]
        with ThreadPoolExecutor(3) as pool:
            replies = list(pool.map(server.client.optimize, sources))
        assert all(reply.status == 200 for reply in replies)
        flight = server.client.metrics().payload["singleflight"]
        assert flight["led"] == 3
        assert flight["coalesced"] == 0


@pytest.mark.slow
class TestSoak:
    def test_cache_hit_is_an_order_of_magnitude_faster(self, server):
        """The acceptance bar: second identical request >= 10x faster.

        Timed over repeated trials against the *autotune* endpoint (the
        priciest compile) so the miss cost dwarfs HTTP overhead.
        """
        source = nest(32)
        # Warm-up on another key: the first autotune pays the lazy
        # imports, which would otherwise inflate the miss sample.
        warm = server.client.autotune(nest(24), budget=32, beam=4)
        assert warm.status == 200
        start = time.perf_counter()
        first = server.client.autotune(source, budget=32, beam=4)
        miss_elapsed = time.perf_counter() - start
        assert first.cache_state == "miss"

        hits = []
        for _ in range(5):
            start = time.perf_counter()
            reply = server.client.autotune(source, budget=32, beam=4)
            hits.append(time.perf_counter() - start)
            assert reply.cache_state == "hit"
            assert reply.body == first.body
        assert min(hits) * 10 <= miss_elapsed, (
            f"hit {min(hits) * 1000:.2f}ms vs miss {miss_elapsed * 1000:.2f}ms"
        )

    def test_sustained_mixed_load(self, server_factory):
        """200 requests, 8 clients, 4 workers sharded: zero failures."""
        handle = server_factory(jobs=2, batch_max=4, batch_window_ms=5.0)
        sources = [nest(16 + 4 * i) for i in range(10)]

        def hammer(worker: int) -> int:
            ok = 0
            for i in range(25):
                reply = handle.client.optimize(sources[(worker * 7 + i) % 10])
                ok += reply.status == 200
            return ok

        with ThreadPoolExecutor(8) as pool:
            totals = list(pool.map(hammer, range(8)))
        assert sum(totals) == 200
        metrics = handle.client.metrics().payload
        assert metrics["requests"]["by_status"] == {"200": 200}
