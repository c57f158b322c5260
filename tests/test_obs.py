"""Tests for the observability layer (repro.obs): spans, metrics,
remarks, pipeline instrumentation, and the JSONL round trip."""

import json

import pytest

from repro import parse_program
from repro.model import CostModel
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    Obs,
    Remark,
    Tracer,
    get_obs,
    read_jsonl,
    set_obs,
    use_obs,
    write_jsonl,
)
from repro.stats.report import render_metrics, render_remarks, render_spans
from repro.transforms import compound, distribute_nest, fuse_adjacent, permute_nest

MATMUL = """
PROGRAM demo
PARAMETER N = 16
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

#: Wavefront dependence (1,-1): memory order (J,I) is illegal without
#: reversal, so permutation is rejected with reason "dependences".
PERMUTE_REJECTED = """
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

#: Second loop reads A(J+1) before the first loop wrote it: fusing the
#: two compatible headers would reverse the dependence.
FUSION_REJECTED = """
PROGRAM p
PARAMETER N = 8
REAL A(N), C(N)
DO I = 1, N
  A(I) = 1.0
ENDDO
DO J = 1, N
  C(J) = A(J+1) + A(J)
ENDDO
END
"""

FUSION_ACCEPTED = """
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

CHOLESKY = """
PROGRAM chol
PARAMETER N = 24
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

#: Fully serial recurrence in both dimensions: nothing distributes.
DISTRIBUTE_REJECTED = """
PROGRAM p
PARAMETER N = 8
REAL A(N,N)
DO I = 2, N
  DO J = 2, N
    A(I,J) = A(I-1,J) + A(I,J-1)
  ENDDO
ENDDO
END
"""


class TestTracer:
    def test_nesting_and_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", program="x"):
            with tracer.span("inner", nest=0):
                pass
            with tracer.span("inner", nest=1):
                pass
        outer, a, b = tracer.spans
        assert outer.parent_id is None
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert tracer.roots() == [outer]
        assert tracer.children(outer) == [a, b]
        assert len(tracer.find("inner")) == 2

    def test_timing_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.spans
        assert outer.finished and inner.finished
        # A child's whole window lies inside its parent's window.
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_sibling_spans_ordered(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.parent_id is None and b.parent_id is None
        assert a.end <= b.start

    def test_span_attrs(self):
        tracer = Tracer()
        with tracer.span("s", program="demo", nest=3) as span:
            assert span.attrs == {"program": "demo", "nest": 3}


class TestNullContext:
    def test_default_is_disabled(self):
        obs = get_obs()
        assert obs is NULL_OBS
        assert not obs.enabled

    def test_null_operations_are_noops(self):
        obs = NULL_OBS
        with obs.span("anything", x=1) as span:
            assert span is None
        assert obs.remark("p", "applied", "m") is None
        counter = obs.metrics.counter("c")
        counter.inc()
        assert counter.value == 0
        assert obs.metrics.snapshot()["counters"] == {}

    def test_null_span_handle_is_shared(self):
        assert NULL_OBS.span("a") is NULL_OBS.span("b")

    def test_use_obs_restores_previous(self):
        obs = Obs()
        with use_obs(obs):
            assert get_obs() is obs
            with use_obs(None):
                assert get_obs() is NULL_OBS
            assert get_obs() is obs
        assert get_obs() is NULL_OBS

    def test_set_obs(self):
        obs = Obs()
        try:
            assert set_obs(obs) is obs
            assert get_obs() is obs
        finally:
            set_obs(None)
        assert get_obs() is NULL_OBS


class TestMetrics:
    def test_counter_gauge_histogram(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.counter("c").inc(4)
        metrics.gauge("g").set(7)
        for value in (1, 2, 2, 5):
            metrics.histogram("h").record(value)
        assert metrics.counter("c").value == 5
        assert metrics.gauge("g").value == 7
        histogram = metrics.histogram("h")
        assert histogram.count == 4
        assert histogram.total == 10
        assert histogram.min == 1 and histogram.max == 5
        assert histogram.buckets == {1: 1, 2: 2, 5: 1}
        assert histogram.mean == pytest.approx(2.5)

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc()
        a.histogram("h").record(1)
        b.histogram("h").record(1)
        b.histogram("h").record(9)
        b.gauge("g").set(42)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.counter("only_b").value == 1
        assert a.histogram("h").buckets == {1: 2, 9: 1}
        assert a.gauge("g").value == 42

    def test_snapshot_is_sorted_and_plain(self):
        metrics = MetricsRegistry()
        metrics.counter("z").inc()
        metrics.counter("a").inc()
        snapshot = metrics.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        json.dumps(snapshot)  # JSON-ready


class TestRemark:
    def test_format_stable(self):
        remark = Remark(
            "permute",
            "applied",
            "reordered I.J -> J.I",
            nest=0,
            loops=("I", "J"),
            data=(("order", ("J", "I")),),
        )
        assert remark.format() == (
            "permute:applied nest=0 [I J]: reordered I.J -> J.I {order=J,I}"
        )

    def test_dict_round_trip(self):
        remark = Remark(
            "fusion",
            "rejected",
            "fusion rejected: fusion-preventing dependence",
            loops=("I", "J"),
            reason="fusion-preventing",
            data=(("depth", 1),),
        )
        assert Remark.from_dict(remark.to_dict()) == remark


class TestPipelineRemarks:
    def run(self, source, fn):
        obs = Obs()
        with use_obs(obs):
            fn(parse_program(source))
        return obs

    def test_permutation_accepted(self):
        obs = self.run(
            MATMUL, lambda p: permute_nest(p.top_loops[0], CostModel(cls=4))
        )
        (remark,) = obs.remarks_for("permute")
        assert remark.kind == "applied"
        assert remark.get("order") == ("J", "K", "I")
        assert remark.get("memory_order") is True
        assert obs.metrics.counter("permute.applied").value == 1

    def test_permutation_rejected(self):
        obs = self.run(
            PERMUTE_REJECTED,
            lambda p: permute_nest(
                p.top_loops[0], CostModel(cls=4), enable_reversal=False
            ),
        )
        (remark,) = obs.remarks_for("permute")
        assert remark.kind == "rejected"
        assert remark.reason == "dependences"

    def test_fusion_accepted(self):
        obs = self.run(
            FUSION_ACCEPTED, lambda p: fuse_adjacent(p.body, CostModel(cls=4))
        )
        kinds = [r.kind for r in obs.remarks_for("fusion")]
        assert "applied" in kinds
        assert obs.metrics.counter("fusion.applied").value == 1

    def test_fusion_rejected(self):
        obs = self.run(
            FUSION_REJECTED, lambda p: fuse_adjacent(p.body, CostModel(cls=4))
        )
        rejected = [r for r in obs.remarks_for("fusion") if r.kind == "rejected"]
        assert rejected and rejected[0].reason == "fusion-preventing"
        assert "fusion-preventing dependence" in rejected[0].message

    def test_distribution_accepted(self):
        obs = self.run(
            CHOLESKY, lambda p: distribute_nest(p.top_loops[0], CostModel(cls=4))
        )
        applied = [r for r in obs.remarks_for("distribute") if r.kind == "applied"]
        assert applied and applied[0].get("new_nests") >= 2

    def test_distribution_rejected(self):
        obs = self.run(
            DISTRIBUTE_REJECTED,
            lambda p: distribute_nest(p.top_loops[0], CostModel(cls=4)),
        )
        rejected = [r for r in obs.remarks_for("distribute") if r.kind == "rejected"]
        assert rejected and rejected[0].reason == "no-enabling-partition"

    TWO_NESTS = """
PROGRAM two
PARAMETER N = 16
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
DO II = 1, N
  DO JJ = 1, N
    A(II,JJ) = 0.0
  ENDDO
ENDDO
END
"""

    def test_compound_emits_per_nest(self):
        obs = self.run(self.TWO_NESTS, lambda p: compound(p, CostModel(cls=4)))
        per_nest = [r for r in obs.remarks_for("compound") if r.nest is not None]
        assert {r.nest for r in per_nest} == {0, 1}
        assert obs.metrics.counter("compound.nests").value == 2
        spans = obs.tracer.find("compound.nest")
        assert len(spans) == 2
        (root,) = obs.tracer.find("compound")
        assert all(s.parent_id == root.span_id for s in spans)

    def test_dependence_test_kind_counters(self):
        obs = self.run(MATMUL, lambda p: compound(p, CostModel(cls=4)))
        counters = obs.metrics.snapshot()["counters"]
        assert counters["dep.pairs"] > 0
        assert counters.get("dep.test.siv", 0) > 0

    def test_refgroup_size_histogram(self):
        obs = self.run(MATMUL, lambda p: compound(p, CostModel(cls=4)))
        histogram = obs.metrics.histogram("model.refgroup.size")
        assert histogram.count > 0
        assert histogram.min >= 1


class TestJsonlRoundTrip:
    def build(self):
        obs = Obs()
        with use_obs(obs):
            compound(parse_program(MATMUL), CostModel(cls=4))
        return obs

    def test_round_trip(self, tmp_path):
        obs = self.build()
        path = str(tmp_path / "trace.jsonl")
        count = write_jsonl(obs, path)
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == count
        for line in lines:
            json.loads(line)  # every line is valid JSON

        data = read_jsonl(path)
        assert data.meta["schema"] == 2
        assert data.remarks == list(obs.remarks)
        assert [s.name for s in data.spans] == [s.name for s in obs.tracer.spans]
        assert [s.parent_id for s in data.spans] == [
            s.parent_id for s in obs.tracer.spans
        ]
        assert data.metrics.snapshot() == obs.metrics.snapshot()

    def test_round_trip_twice_is_identity(self, tmp_path):
        obs = self.build()
        first = str(tmp_path / "a.jsonl")
        write_jsonl(obs, first)
        data = read_jsonl(first)
        rebuilt = Obs(metrics=data.metrics)
        rebuilt.tracer.spans = data.spans
        rebuilt.remarks = data.remarks
        second = str(tmp_path / "b.jsonl")
        write_jsonl(rebuilt, second)
        with open(first) as f1, open(second) as f2:
            assert f1.read() == f2.read()


class TestRendering:
    def test_render_remarks_stable_and_ordered(self):
        obs = Obs()
        with use_obs(obs):
            compound(parse_program(MATMUL), CostModel(cls=4))
        text = render_remarks(obs.remarks)
        assert text == render_remarks(obs.remarks)
        assert "permute:applied" in text
        assert "compound:" in text

    def test_render_remarks_empty(self):
        assert "(no remarks)" in render_remarks([])

    def test_render_spans_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = render_spans(tracer.spans)
        lines = text.splitlines()
        assert "outer" in lines[1]
        assert lines[2].startswith("    ")  # child indented under parent
        assert "ms" in lines[1]

    def test_render_metrics(self):
        metrics = MetricsRegistry()
        metrics.counter("dep.pairs").inc(3)
        metrics.histogram("sizes").record(2)
        text = render_metrics(metrics)
        assert "dep.pairs" in text
        assert "sizes" in text

    def test_render_metrics_empty(self):
        assert "(no metrics)" in render_metrics(MetricsRegistry())

    def test_render_metrics_shards_table(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(2)
        a.merge_shard("shard-0", b)
        a.merge_shard("shard-0", b)  # retry: offer counted, not re-merged
        text = render_metrics(a)
        assert "shards (1 merged" in text
        assert "shard-0" in text


class TestProfiling:
    def test_profile_spans_carry_cpu_and_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            tracer = Tracer(profile=True)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    blob = [0] * 50_000  # noqa: F841 - allocate a peak
            outer, inner = tracer.spans
            for span in (outer, inner):
                assert span.cpu is not None and span.cpu >= 0.0
                assert span.mem_peak is not None and span.mem_peak >= 0
                assert span.pid is not None
            # The child's allocation is folded into the parent's peak.
            assert inner.mem_peak >= 50_000 * 8
            assert outer.mem_peak >= inner.mem_peak
        finally:
            tracemalloc.stop()

    def test_unprofiled_spans_stay_schema_compatible(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (span,) = tracer.spans
        assert span.cpu is None
        assert span.mem_peak is None

    def test_render_profile_tree(self):
        from repro.obs import render_profile

        tracer = Tracer()
        with tracer.span("experiment.run"):
            with tracer.span("exec.simulate"):
                pass
            with tracer.span("exec.simulate"):
                pass
        metrics = MetricsRegistry()
        metrics.counter("cache.accesses").inc(10)
        text = render_profile(tracer.spans, metrics)
        assert "experiment.run" in text
        assert "exec.simulate" in text
        assert "calls" in text and "wall ms" in text
        # Two same-named siblings aggregate into one row with calls=2.
        row = next(l for l in text.splitlines() if "exec.simulate" in l)
        assert " 2 " in row
        assert "cache.accesses=10" in text

    def test_render_profile_empty(self):
        from repro.obs import render_profile

        assert "(no spans recorded)" in render_profile([])


class TestShardMerging:
    def test_graft_remaps_ids_and_tags_shard(self):
        worker = Tracer()
        worker.pid = 4242
        with worker.span("w.outer"):
            with worker.span("w.inner"):
                pass
        parent = Tracer()
        with parent.span("sharded") as root:
            pass
        parent.graft(worker.spans, parent=root, shard=3)
        names = {s.name: s for s in parent.spans}
        assert names["w.outer"].parent_id == root.span_id
        assert names["w.inner"].parent_id == names["w.outer"].span_id
        assert names["w.outer"].shard == 3
        assert names["w.outer"].pid == 4242
        # Grafted ids never collide with the parent's own ids.
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_merge_shard_dedupes_retries(self):
        obs = Obs()
        shard = MetricsRegistry()
        shard.counter("cache.accesses").inc(100)
        assert obs.merge_shard("shard-0", shard) is True
        assert obs.merge_shard("shard-0", shard) is False  # pool retry
        assert obs.metrics.counter("cache.accesses").value == 100
        assert obs.metrics.shards == {"shard-0": 2}
        snapshot = obs.metrics.snapshot()
        assert snapshot["shards"] == {"shard-0": 2}

    def test_merge_shard_distinct_shards_accumulate(self):
        obs = Obs()
        for index in range(3):
            shard = MetricsRegistry()
            shard.counter("c").inc(1)
            obs.merge_shard(f"shard-{index}", shard)
        assert obs.metrics.counter("c").value == 3
        assert len(obs.metrics.shards) == 3

    def test_merge_shard_remarks_and_spans_once(self):
        worker = Obs()
        with use_obs(worker):
            worker.remark("p", "applied", "permute")
            with worker.tracer.span("w.task"):
                pass
        obs = Obs()
        with obs.span("sharded") as root:
            obs.merge_shard(
                "shard-0",
                worker.metrics,
                remarks=tuple(worker.remarks),
                spans=tuple(worker.tracer.spans),
                parent=root,
                shard=0,
            )
            obs.merge_shard(
                "shard-0",
                worker.metrics,
                remarks=tuple(worker.remarks),
                spans=tuple(worker.tracer.spans),
                parent=root,
                shard=0,
            )
        assert len(obs.remarks) == 1
        assert len(obs.tracer.find("w.task")) == 1

    def test_run_sharded_merges_worker_observability(self):
        from repro.experiments.common import run_sharded

        obs = Obs()
        with use_obs(obs):
            results = run_sharded(_square_observed, [(2,), (3,), (4,)], jobs=2)
        assert results == [4, 9, 16]
        # Worker counters merged exactly once per shard.
        assert obs.metrics.counter("sharded.calls").value == 3
        assert set(obs.metrics.shards) == {"shard-0", "shard-1", "shard-2"}
        # Worker spans grafted under the sharded span with provenance.
        (sharded,) = obs.tracer.find("experiment.sharded")
        worker_spans = obs.tracer.find("sharded.work")
        assert len(worker_spans) == 3
        assert {s.parent_id for s in worker_spans} == {sharded.span_id}
        assert {s.shard for s in worker_spans} == {0, 1, 2}
        assert all(s.pid is not None for s in worker_spans)

    def test_run_sharded_serial_equivalence(self):
        from repro.experiments.common import run_sharded

        serial = Obs()
        with use_obs(serial):
            run_sharded(_square_observed, [(2,), (3,)], jobs=1)
        parallel = Obs()
        with use_obs(parallel):
            run_sharded(_square_observed, [(2,), (3,)], jobs=2)
        assert (
            serial.metrics.counter("sharded.calls").value
            == parallel.metrics.counter("sharded.calls").value
        )


def _square_observed(n: int) -> int:
    obs = get_obs()
    obs.metrics.counter("sharded.calls").inc()
    with obs.span("sharded.work", n=n):
        return n * n
