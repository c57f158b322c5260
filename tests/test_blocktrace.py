"""Batched trace engine and vectorized cache path: equivalence tests.

The batched engine exists purely for speed; every test here pins the
invariant that makes it safe to use by default — bit-identical behaviour
with the reference paths (scalar cache probes and the validating
interpreter) at every layer: raw cache state, hierarchy cascades, trace
streams, experiment hit rates, and the sharded experiment runner.
"""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CACHE2, CacheConfig, Hierarchy, SetAssocCache
from repro.exec import (
    Interpreter,
    Machine,
    compile_block_trace,
    run_program,
    run_trace,
    simulate,
)
from repro.exec import blocktrace
from repro.exec.blocktrace import AccessBlock, BlockTraceError
from repro.experiments import table3_perf, table4_hitrates
from repro.experiments.common import (
    MACHINE1,
    MACHINE2,
    changed_sids,
    dual_hit_rates,
    resolve_jobs,
)
from repro.frontend import parse_program
from repro.model import CostModel, registered_caches
from repro.suite import get_set, suite_entries
from repro.suite.registry import DEFAULT_INSTANCES
from repro.transforms import compound
from repro.verify.gennest import generate_program


def geometry(assoc: int, sets: int, line: int = 16) -> CacheConfig:
    return CacheConfig(
        f"g{assoc}x{sets}", size=line * assoc * sets, assoc=assoc, line=line
    )


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.cold_misses, stats.conflict_misses)


def block_trace_events(program):
    """The block trace flattened to ``(address, size, write, sid)``."""
    events = []
    compile_block_trace(program).run(lambda b: events.extend(b.events()))
    return events


# ----------------------------------------------------------------------
# SetAssocCache.access_block == repeated access(), bit for bit
# ----------------------------------------------------------------------
class TestAccessBlockEquivalence:
    @given(
        assoc=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 4, 7]),
        addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=200),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_random_streams(self, assoc, sets, addresses, data):
        config = geometry(assoc, sets)
        sizes = data.draw(
            st.lists(
                st.integers(1, 40),
                min_size=len(addresses),
                max_size=len(addresses),
            )
        )
        scalar = SetAssocCache(config)
        batched = SetAssocCache(config)
        for address, size in zip(addresses, sizes):
            scalar.access(address, size)
        # Feed the batched cache in irregular chunks to exercise block
        # boundaries and interleaving with pre-existing state.
        arr = np.array(addresses, dtype=np.int64)
        size_arr = np.array(sizes, dtype=np.int64)
        hits = []
        for start in range(0, len(addresses), 37):
            result = batched.access_block(
                arr[start : start + 37], size_arr[start : start + 37]
            )
            hits.extend(result.hits.tolist())
        assert stats_tuple(batched.stats) == stats_tuple(scalar.stats)
        # Per-access hit flags must match a scalar replay as well.
        replay = SetAssocCache(config)
        expected = [
            replay.access(address, size)
            for address, size in zip(addresses, sizes)
        ]
        assert hits == expected

    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=150))
    @settings(deadline=None, max_examples=40)
    def test_cold_miss_classification(self, addresses):
        # Cold misses depend on global first-touch history; run the same
        # stream twice so the second pass has no cold misses at all.
        config = geometry(2, 4)
        scalar = SetAssocCache(config)
        batched = SetAssocCache(config)
        arr = np.array(addresses, dtype=np.int64)
        for _ in range(2):
            for address in addresses:
                scalar.access(address, 1)
            batched.access_block(arr, 1)
            assert stats_tuple(batched.stats) == stats_tuple(scalar.stats)

    def test_empty_block(self):
        cache = SetAssocCache(geometry(2, 4))
        result = cache.access_block(np.empty(0, dtype=np.int64))
        assert len(result) == 0
        assert cache.stats.accesses == 0


class TestHierarchyBlockEquivalence:
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=200))
    @settings(deadline=None, max_examples=40)
    def test_levels_and_tlb(self, addresses):
        def build():
            return Hierarchy(
                [geometry(1, 4, line=32), geometry(2, 8, line=32)],
                tlb=CacheConfig("t", size=4 * 4096, assoc=4, line=4096),
            )

        scalar = build()
        batched = build()
        expected = [scalar.access(address, 8) for address in addresses]
        levels = batched.access_block(
            np.array(addresses, dtype=np.int64), 8
        )
        assert levels.tolist() == expected
        a, b = scalar.result, batched.result
        assert a.tlb is not None and b.tlb is not None
        assert stats_tuple(a.tlb) == stats_tuple(b.tlb)
        for name in a.levels:
            assert stats_tuple(a.levels[name]) == stats_tuple(b.levels[name])


class TestScalarCacheReference:
    """Per-event ``access`` is the reference for ``access_block`` on the
    real streams, now that every simulation feeds the batched path."""

    def test_every_all_entry_matches_scalar_cache(self):
        configs = (MACHINE1.cache, MACHINE2.cache)
        for entry in get_set("all").entries():
            for instance in ("mini", "small"):
                program = entry.program(instance=instance)
                scalar = [SetAssocCache(config) for config in configs]
                batched = [SetAssocCache(config) for config in configs]

                def on_block(block) -> None:
                    for one, many in zip(scalar, batched):
                        expected = [
                            one.access(address, size, write)
                            for address, size, write, _ in block.events()
                        ]
                        result = many.access_block(block.addresses, block.sizes)
                        assert result.hits.tolist() == expected

                compile_block_trace(program).run(on_block)
                for one, many in zip(scalar, batched):
                    assert stats_tuple(one.stats) == stats_tuple(many.stats), (
                        entry.name,
                        instance,
                        one.config.name,
                    )


# ----------------------------------------------------------------------
# Block trace stream == interpreter event stream, on every suite kernel
# ----------------------------------------------------------------------
class TestBlockTraceStream:
    def test_every_suite_kernel_matches_interpreter(self):
        for entry in suite_entries():
            program = entry.program(8)
            recorded = []
            run_program(
                program,
                on_access=lambda e: recorded.append(
                    (e.address, e.size, e.write, e.sid)
                ),
                init=entry.init,
            )
            assert block_trace_events(program) == recorded, entry.name

    def test_every_suite_kernel_compiles_batched(self):
        # simulate() must never fall back to the interpreter on the
        # registry (every instance) or on the example programs.
        for entry in get_set("all").entries():
            for instance in DEFAULT_INSTANCES:
                compile_block_trace(entry.program(instance=instance))
        examples = Path(__file__).resolve().parents[1] / "examples"
        sources = sorted(examples.glob("*.f"))
        assert sources
        for path in sources:
            compile_block_trace(parse_program(path.read_text()))

    def test_block_coalescing_respects_block_size(self):
        program = parse_program(
            """
            PROGRAM p
            REAL A(64,64)
            DO J = 1, 64
              DO I = 1, 64
                A(I,J) = A(I,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        for block_size in (256, 1000, 4096):
            blocks: list[AccessBlock] = []
            trace = compile_block_trace(program, block_size=block_size)
            trace.run(blocks.append)
            assert sum(len(b) for b in blocks) == 2 * 64 * 64
            assert all(len(b) >= block_size for b in blocks[:-1])
            # A collapsed chain adds at most block_size // 4 entries.
            assert all(len(b) < block_size + block_size // 4 for b in blocks)

    def test_counters_match_event_engine(self):
        # Statement instances and operations equal the interpreter's.
        for entry in suite_entries():
            program = entry.program(8)
            count, ops = compile_block_trace(program).run(lambda b: None)
            interp = Interpreter(program, init=entry.init)
            interp.run()
            assert (count, ops) == (
                interp.statements_executed,
                interp.operations_executed,
            ), entry.name


# ----------------------------------------------------------------------
# Collapsed loop chains: stream and counters equal the interpreter's
# ----------------------------------------------------------------------
def assert_matches_interpreter(program, block_size=None):
    """Events and (count, ops) of the block trace equal the interpreter's;
    returns the compiled trace so callers can inspect its source."""
    recorded = []
    interp = Interpreter(
        program,
        on_access=lambda e: recorded.append((e.address, e.size, e.write, e.sid)),
    )
    interp.run()
    expected = (interp.statements_executed, interp.operations_executed)
    assert block_trace_events(program) == recorded
    kwargs = {} if block_size is None else {"block_size": block_size}
    trace = compile_block_trace(program, **kwargs)
    events: list = []
    assert trace.run(lambda block: events.extend(block.events())) == expected
    assert events == recorded
    return trace


def nest(body: str, params: str = "PARAMETER N = 7") -> str:
    return f"""
    PROGRAM p
    {params}
    REAL A(40,40), B(40,40)
    {body}
    END
    """


class TestCollapsedChains:
    def test_triangular_bounds_on_both_ends(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N
                  DO J = I, 2*I - 1
                    DO K = J - I + 1, J
                      A(J,K) = A(J,K) + B(K,I)
                    ENDDO
                  ENDDO
                ENDDO
                """
            )
        )
        trace = assert_matches_interpreter(program)
        assert "# collapsed I, J, K" in trace.source

    def test_over_empty_inner_range(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N
                  DO J = I + 2, N
                    A(I,J) = A(I,J) + B(J,I)
                  ENDDO
                ENDDO
                """,
                params="PARAMETER N = 4",
            )
        )
        for n in range(5):
            trace = assert_matches_interpreter(program.with_params({"N": n}))
            assert "# collapsed I, J" in trace.source

    def test_negative_steps(self):
        inner = nest(
            """
            DO I = 1, N
              DO J = N, I, -1
                A(I,J) = B(J,I) + 1.0
              ENDDO
            ENDDO
            """
        )
        outer = nest(
            """
            DO I = N, 1, -1
              DO J = I, N
                DO K = N, J, -2
                  A(J,K) = A(J,K) + B(I,K)
                ENDDO
              ENDDO
            ENDDO
            """
        )
        for source in (inner, outer):
            trace = assert_matches_interpreter(parse_program(source))
            assert "for " not in trace.source

    def test_non_unit_steps(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N, 2
                  DO J = I, N, 3
                    DO K = 2, N, 2
                      A(J,K) = A(I,K) + B(K,J)
                    ENDDO
                  ENDDO
                ENDDO
                """
            )
        )
        trace = assert_matches_interpreter(program)
        assert "# collapsed I, J, K" in trace.source

    def test_bound_from_enclosing_python_loop(self):
        # The statement before the chain keeps K a Python loop; the
        # chain's bounds read K as a scalar and its hull sizes the budget.
        program = parse_program(
            nest(
                """
                DO K = 1, N
                  B(K,K) = 0.0
                  DO I = 1, K
                    DO J = I, K + 1
                      A(I,J) = A(I,J) + B(J,K)
                    ENDDO
                  ENDDO
                ENDDO
                """
            )
        )
        trace = assert_matches_interpreter(program)
        assert "for K in range" in trace.source
        assert "# collapsed I, J" in trace.source

    def test_chain_over_budget_falls_back_level_by_level(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N
                  DO J = 1, N
                    DO K = 1, N
                      A(J,K) = A(J,K) + B(I,K)
                    ENDDO
                  ENDDO
                ENDDO
                """,
                params="PARAMETER N = 6",
            )
        )
        # 3 slots: K alone is 18 entries, J and K 108, the whole chain 648.
        expected = {
            4 * 648: ("# collapsed I, J, K",),
            4 * 647: ("for I in", "# collapsed J, K"),
            4 * 108: ("for I in", "# collapsed J, K"),
            4 * 107: ("for I in", "for J in", "# collapsed K"),
            4: ("for I in", "for J in", "# collapsed K"),
        }
        for block_size, lines in expected.items():
            trace = assert_matches_interpreter(program, block_size=block_size)
            for line in lines:
                assert line in trace.source, (block_size, line)

    def test_inner_body_without_access_slots(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N
                  DO J = I, N
                    S = S + 2.0
                  ENDDO
                ENDDO
                A(1,1) = S
                """
            )
        )
        trace = assert_matches_interpreter(program)
        assert "for I in range" in trace.source
        assert "__n = len(range(" in trace.source

    def test_imperfect_nest(self):
        program = parse_program(
            nest(
                """
                DO I = 1, N
                  DO J = 1, I
                    A(I,J) = B(J,I)
                  ENDDO
                  DO K = I, N
                    DO L = 1, K
                      B(K,L) = A(L,I) + B(K,L)
                    ENDDO
                  ENDDO
                ENDDO
                """
            )
        )
        trace = assert_matches_interpreter(program)
        assert "for I in range" in trace.source
        assert "# collapsed J\n" in trace.source
        assert "# collapsed K, L\n" in trace.source

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300)
    def test_generated_nests_match_interpreter(self, seed):
        program = generate_program(random.Random(seed))
        assert_matches_interpreter(program)
        # A tiny budget keeps most chains in Python; still identical.
        assert_matches_interpreter(program, block_size=16)


# ----------------------------------------------------------------------
# The compile memo (exec.blocktrace.cache)
# ----------------------------------------------------------------------
MEMO_SOURCE = """
PROGRAM memo
PARAMETER N = 9
REAL A(N,N), B(N,N)
DO J = 1, N
  DO I = 1, N
    A(I,J) = A(I,J) + B(J,I)
  ENDDO
  B(1,J) = A(J,1)
ENDDO
END"""


def shifted_sids(program, by: int):
    from dataclasses import replace

    from repro.ir.nodes import Assign

    def walk(node):
        if isinstance(node, Assign):
            return node.with_sid(node.sid + by)
        return node.with_body([walk(child) for child in node.body])

    return replace(program, body=tuple(walk(node) for node in program.body))


class TestTraceMemo:
    def test_equal_compile_hits_the_cache(self):
        from repro.obs import Obs, use_obs

        blocktrace._TRACES.clear()
        with use_obs(Obs()) as obs:
            program = parse_program(MEMO_SOURCE)
            first = compile_block_trace(program.with_params({"N": 7}))
            second = compile_block_trace(parse_program(MEMO_SOURCE).with_params({"N": 7}))
            compile_block_trace(program.with_params({"N": 8}))
            compile_block_trace(program.with_params({"N": 7}), block_size=64)
            counters = obs.metrics.snapshot()["counters"]
        assert second is first
        assert counters["exec.blocktrace.cache.hits"] == 1
        assert counters["exec.blocktrace.cache.misses"] == 3
        # Only real compiles open a span.
        assert len(obs.tracer.find("exec.blocktrace.compile")) == 3
        assert "exec.blocktrace.cache" in registered_caches()

    def test_programs_the_canonical_digest_merges_keep_their_own_trace(self):
        from dataclasses import replace

        from repro.ir.canon import content_digest

        base = parse_program(MEMO_SOURCE)
        variants = [
            replace(base, arrays=tuple(replace(d, elem_size=4) for d in base.arrays)),
            replace(base, arrays=tuple(reversed(base.arrays))),
            shifted_sids(base, 10),
        ]
        streams = [block_trace_events(base)]
        for variant in variants:
            assert variant != base
            assert content_digest(variant) == content_digest(base)
            assert_matches_interpreter(variant)
            streams.append(block_trace_events(variant))
        assert len({tuple(stream) for stream in streams}) == len(streams)

    def test_a_cached_decline_raises_again(self):
        from dataclasses import replace

        from repro.obs import Obs, use_obs

        base = parse_program(MEMO_SOURCE)
        program = replace(base, arrays=base.arrays[:1])  # B has no layout
        blocktrace._TRACES.clear()
        with use_obs(Obs()) as obs:
            messages = []
            for _ in range(2):
                with pytest.raises(BlockTraceError) as caught:
                    compile_block_trace(program)
                messages.append(str(caught.value))
            counters = obs.metrics.snapshot()["counters"]
        assert messages[0] == messages[1] and "'B'" in messages[0]
        assert counters["exec.blocktrace.cache.hits"] == 1
        assert len(obs.tracer.find("exec.blocktrace.compile")) == 1

    def test_threads_share_cached_traces(self):
        import sys
        import threading

        programs = [parse_program(MEMO_SOURCE).with_params({"N": n}) for n in (5, 6, 7)]
        expected = [block_trace_events(program) for program in programs]
        blocktrace._TRACES.clear()
        lookups = blocktrace._TRACES.hits + blocktrace._TRACES.misses
        failures = []

        def worker(seed: int) -> None:
            order = random.Random(seed)
            for _ in range(20):
                i = order.randrange(len(programs))
                if block_trace_events(programs[i]) != expected[i]:
                    failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        after = blocktrace._TRACES.hits + blocktrace._TRACES.misses
        assert after - lookups == 6 * 20

    def test_a_shared_trace_cannot_be_altered(self):
        program = parse_program(
            "PROGRAM one\nREAL A(2,2)\nA(1,1) = A(2,2)\nEND"
        )
        trace = compile_block_trace(program)
        with pytest.raises(AttributeError):
            trace.block_size = 1
        blocks = []
        trace.run(blocks.append)
        # The lone block is the statement's own slot pattern, shared by
        # every run of the cached trace.
        (block,) = blocks
        with pytest.raises(ValueError):
            block.sizes[0] = 1


# ----------------------------------------------------------------------
# Block trace vs interpreter, end to end
# ----------------------------------------------------------------------
def reject_block_trace(*args, **kwargs):
    raise BlockTraceError("rejected for the test")


class TestEngineSelection:
    def test_simulate_engines_identical(self):
        for entry in list(suite_entries())[:6]:
            program = entry.program(12)
            a = simulate(program)
            b = simulate(program, init=entry.init, compiled=False)
            assert stats_tuple(a.cache) == stats_tuple(b.cache), entry.name
            assert (a.cycles, a.operations) == (b.cycles, b.operations)

    def test_access_size_reaches_the_cache(self):
        # 12-byte elements straddle 32-byte lines, so each engine must
        # carry the access size: a stream of 1-byte accesses would touch
        # one line per event.
        from dataclasses import replace

        program = parse_program(
            """PROGRAM p
PARAMETER N = 20
REAL A(N,N), B(N,N)
DO I = 1, N
  DO J = 1, N
    A(I,J) = A(I,J) + B(J,I)
  ENDDO
ENDDO
END"""
        )
        program = replace(
            program, arrays=tuple(replace(d, elem_size=12) for d in program.arrays)
        )
        sizes = {}
        for compiled in (True, False):
            chunks = []
            run_trace(program, lambda b: chunks.append(b.sizes.copy()), compiled=compiled)
            sizes[compiled] = np.concatenate(chunks)
        assert np.array_equal(sizes[True], sizes[False])
        machine = Machine(cache=CacheConfig("L32", size=1024, assoc=2, line=32))
        block = simulate(program, machine, compiled=True).cache
        interpreted = simulate(program, machine, compiled=False).cache
        assert block == interpreted
        assert block.accesses > len(sizes[True])

    def test_simulate_falls_back_to_interpreter(self, monkeypatch):
        from repro.obs import Obs, use_obs

        program = suite_entries()[0].program(12)
        expected = simulate(program)
        monkeypatch.setattr(blocktrace, "compile_block_trace", reject_block_trace)
        with use_obs(Obs()) as obs:
            fallback = simulate(program)
            counters = obs.metrics.snapshot()["counters"]
        assert counters.get("trace.block.fallback") == 1
        assert "trace.engine.block" not in counters
        assert stats_tuple(fallback.cache) == stats_tuple(expected.cache)
        assert fallback.cycles == expected.cycles

    def test_simulate_with_init_takes_block_path(self):
        from repro.obs import Obs, use_obs

        entry = next(e for e in suite_entries() if e.init is not None)
        program = entry.program(12)
        with use_obs(Obs()) as obs:
            block = simulate(program, init=entry.init)
            counters = obs.metrics.snapshot()["counters"]
        assert counters.get("trace.engine.block") == 1
        assert "trace.block.fallback" not in counters
        interpreted = simulate(program, init=entry.init, compiled=False)
        assert stats_tuple(block.cache) == stats_tuple(interpreted.cache)
        assert (block.cycles, block.operations) == (
            interpreted.cycles,
            interpreted.operations,
        )

    def test_reuse_profiles_fall_back_to_interpreter(self, monkeypatch):
        from repro.cache.reuse import per_ref_profile, reuse_profile
        from repro.obs import Obs, use_obs

        runs = {
            "reuse_profile": lambda p: {"whole": reuse_profile(p, line=32)},
            "per_ref_profile": lambda p: per_ref_profile(p, line=32).profiles,
        }

        def observe(program) -> dict:
            """Per run: its fallback count and histograms by key."""
            seen = {}
            for name, run in runs.items():
                with use_obs(Obs()) as obs:
                    profiles = run(program)
                    counters = obs.metrics.snapshot()["counters"]
                seen[name] = (
                    counters.get("trace.block.fallback", 0),
                    {key: (r.accesses, dict(r.histogram)) for key, r in profiles.items()},
                )
            return seen

        programs = [entry.program(8) for entry in list(suite_entries())[:4]]
        block = [observe(program) for program in programs]
        monkeypatch.setattr(blocktrace, "compile_block_trace", reject_block_trace)
        for program, expected in zip(programs, block):
            interpreted = observe(program)
            for name in runs:
                assert expected[name][0] == 0
                assert interpreted[name][0] == 1, (program.name, name)
                assert interpreted[name][1] == expected[name][1], (program.name, name)

    def test_dual_hit_rates_engines_identical(self, monkeypatch):
        cases = []
        for entry in list(suite_entries())[:4]:
            program = entry.program(12)
            final = compound(program, CostModel(cls=4)).program
            focus = changed_sids(program, final)
            for version in (program, final):
                cases.append((entry, version, focus))
        block = [
            dual_hit_rates(version, CACHE2, focus, init=entry.init)
            for entry, version, focus in cases
        ]
        # A rejected program takes the interpreter path.
        monkeypatch.setattr(blocktrace, "compile_block_trace", reject_block_trace)
        interpreted = [
            dual_hit_rates(version, CACHE2, focus, init=entry.init)
            for entry, version, focus in cases
        ]
        assert block == interpreted


# ----------------------------------------------------------------------
# Sharded experiment runner
# ----------------------------------------------------------------------
class TestParallelRunner:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_table3_sharded_identical(self):
        names = tuple(e.name for e in list(suite_entries())[:4])
        serial = table3_perf.run(scale=0.3, names=names)
        sharded = table3_perf.run(scale=0.3, names=names, jobs=2)
        assert [
            (r.name, r.original_cycles, r.transformed_cycles)
            for r in serial.rows
        ] == [
            (r.name, r.original_cycles, r.transformed_cycles)
            for r in sharded.rows
        ]

    def test_table4_sharded_identical(self):
        names = tuple(e.name for e in list(suite_entries())[:4])
        serial = table4_hitrates.run(scale=0.3, names=names)
        sharded = table4_hitrates.run(scale=0.3, names=names, jobs=2)
        assert [
            (r.name, r.whole, r.opt, r.optimized_statements)
            for r in serial.rows
        ] == [
            (r.name, r.whole, r.opt, r.optimized_statements)
            for r in sharded.rows
        ]

    def test_sharded_merges_worker_observability(self):
        from repro.obs import Obs, use_obs

        names = tuple(e.name for e in list(suite_entries())[:3])
        with use_obs(Obs()) as obs:
            table4_hitrates.run(scale=0.3, names=names, jobs=2)
            counters = obs.metrics.snapshot()["counters"]
        (sharded,) = obs.tracer.find("experiment.sharded")
        assert sharded.attrs["shards"] == len(names)
        assert counters.get("trace.engine.block", 0) > 0

    def test_sharded_tables_observe_what_serial_tables_do(self):
        """table3 then table4, serial and with jobs=2, in one process: the
        second sharded call reuses shard indices 0..n and must still
        merge every worker. Memo caches are emptied before each table in
        both modes (as a fresh process has them), so cache hit/miss
        counters do not depend on which process ran which kernel."""
        from repro.model import registered_caches
        from repro.obs import Obs, use_obs

        names = tuple(e.name for e in list(suite_entries())[:3])

        def observe(jobs):
            with use_obs(Obs()) as obs:
                for table in (table3_perf, table4_hitrates):
                    for cache in registered_caches().values():
                        cache.clear()
                    table.run(scale=0.3, names=names, jobs=jobs)
            spans = Counter(
                s.name for s in obs.tracer.spans if s.name != "experiment.sharded"
            )
            return obs.metrics.snapshot()["counters"], spans, len(obs.remarks)

        serial, sharded = observe(1), observe(2)
        assert sharded == serial
        assert serial[0]["trace.engine.block"] > 0
        # table4: two caches, original and optimized, per kernel
        assert serial[1]["experiment.hit_rates"] == 2 * 2 * len(names)


# ----------------------------------------------------------------------
# Memoization caches
# ----------------------------------------------------------------------
class TestMemoCaches:
    def test_pair_cache_identical_results_and_counters(self):
        from repro.dependence import tests as dep_tests
        from repro.obs import Obs, use_obs
        from repro.suite import cholesky

        program = cholesky(10, "KIJ")

        def analyze():
            from repro.dependence.pairs import region_dependences

            with use_obs(Obs()) as obs:
                deps = region_dependences(program.top_loops[0], include_inputs=True)
                counters = obs.metrics.snapshot()["counters"]
            return deps, counters

        dep_tests._PAIR_CACHE.clear()
        cold_deps, cold_counters = analyze()
        warm_deps, warm_counters = analyze()
        assert warm_deps == cold_deps
        # Kind counters replay exactly on cache hits.
        for key in ("dep.pairs", "dep.test.ziv", "dep.test.siv", "dep.test.miv"):
            assert warm_counters.get(key, 0) == cold_counters.get(key, 0), key
        # Warm run: every pair is cached (duplicate pairs hit even cold).
        assert warm_counters.get("dep.cache.misses", 0) == 0
        assert warm_counters["dep.cache.hits"] == (
            cold_counters["dep.cache.hits"] + cold_counters["dep.cache.misses"]
        )

    def test_nest_info_structural_reuse_keeps_caller_loops(self):
        from repro.suite import matmul

        model = CostModel()
        first = matmul(12, "IJK").top_loops[0]
        second = matmul(12, "IJK").top_loops[0]
        assert first == second and first is not second
        info1 = model.nest_info(first)
        info2 = model.nest_info(second)
        # The dependence set is the same (its pairs come from the pair
        # cache)...
        assert info2.deps == info1.deps
        # ...but loops/chains belong to the tree that was asked about,
        # because several consumers compare them by identity.
        assert all(a is b for a, b in zip(info2.loops, second.perfect_nest_loops()))
        sid = second.statements[0].sid
        assert all(l1 is l2 for l1, l2 in zip(info2.chains[sid], info2.loops))

    def test_nest_info_structural_hit_replays_dep_counters(self):
        from repro.dependence.tests import _PAIR_CACHE
        from repro.obs import Obs, use_obs
        from repro.suite import cholesky

        def dep_counters(nest) -> dict:
            with use_obs(Obs()) as obs:
                CostModel().nest_info(nest)
                counters = obs.metrics.snapshot()["counters"]
            return {
                name: value
                for name, value in counters.items()
                if name.startswith("dep.") and not name.startswith("dep.cache.")
            }

        first = cholesky(10, "KIJ").top_loops[0]
        second = cholesky(10, "KIJ").top_loops[0]
        assert first == second and first is not second
        _PAIR_CACHE.clear()
        cold = dep_counters(first)
        misses = _PAIR_CACHE.misses
        warm = dep_counters(second)
        # The rebuild is served by the pair cache alone...
        assert _PAIR_CACHE.misses == misses
        # ...and still reports the cold build's dep.* counters.
        assert cold["dep.pairs"] > 0
        assert warm == cold

    def test_loop_cost_cache_consistent(self):
        from repro.suite import matmul

        nest = matmul(12, "IJK").top_loops[0]
        fresh = CostModel()
        cached = CostModel()
        for var in ("I", "J", "K"):
            cold = cached.loop_cost(nest, var)
            warm = cached.loop_cost(nest, var)
            assert cold is warm  # memoized value
            assert warm.magnitude() == fresh.loop_cost(nest, var).magnitude()

    def test_compound_unaffected_by_warm_caches(self):
        for entry in list(suite_entries())[:6]:
            program = entry.program(10)
            first = compound(program, CostModel(cls=4)).program
            second = compound(program, CostModel(cls=4)).program
            assert first == second, entry.name
