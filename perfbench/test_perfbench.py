"""Fast tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from stats import END_TO_END, PER_LAYER, pooled, tail_level  # noqa: E402

TINY = {
    "compile": ("matmul", "transpose"),
    "simulate": ("matmul", "transpose"),
    "diagnose": ("gmtry_like",),
    "serve": ("matmul", "transpose"),
}


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_tables_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)
    mapped = {metric for layer in layers.values() for metric in layer["metrics"]}
    assert mapped == set(PER_LAYER)
    workloads = set(run.WORKLOADS)
    for layer in layers.values():
        for metric, workload in layer["moves"] + layer.get("unchanged", []):
            assert metric in END_TO_END and workload in workloads


def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(1000) == 99.0
    assert tail_level(366) == 95.0
    assert tail_level(183) == 90.0
    assert tail_level(14) == 50.0
    p50, tail, level, n = pooled(range(1, 101), 100)
    assert (p50, level, n) == (50.5, 90.0, 100) and tail > p50


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(workload, trace):
    result, lines = run.execute(workload, 3, 0.5, trace, TINY[workload])
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, (unit, _) in names.items():
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_same_seed_same_order_and_stream():
    from serve import REPEATS_PER_COLD, ServeWorkload

    programs = list(TINY["compile"]) + ["jacobi"]
    assert run.order_digest(programs, 5) == run.order_digest(programs, 5)
    assert run.order_digest(programs, 5) != run.order_digest(programs, 6)
    serve = ServeWorkload(("matmul", "transpose", "jacobi", "adi"))
    assert serve.stream_digest(5) == serve.stream_digest(5)
    assert serve.stream_digest(5) != serve.stream_digest(6)
    for seed in (5, 6):
        stream = serve.stream(seed, 0)
        assert sum(not r.repeat for r in stream) == 4
        assert sum(r.repeat for r in stream) == 4 * REPEATS_PER_COLD
        assert sum(r.renamed for r in stream) == 4 * REPEATS_PER_COLD // 2
        seen = set()
        for request in stream:
            assert request.repeat == (request.key in seen)
            seen.add(request.key)


def test_speed_probe_takes_one_sample_per_call(monkeypatch):
    import stats

    probe = stats.SpeedProbe()
    assert probe.footprint_mb > 0
    monkeypatch.setattr(stats, "SAMPLE_EVERY_S", 0.0)
    probe.sample_if_due()
    probe.sample_if_due()
    assert len(probe.samples) == 2
    monkeypatch.setattr(stats, "SAMPLE_EVERY_S", 3600.0)
    probe.sample_if_due()
    assert len(probe.samples) == 2
    assert probe.factor() > 0


def test_wrong_compile_output_is_counted_failed(monkeypatch):
    # ``repro.transforms.compound`` the attribute is the function.
    compound_module = importlib.import_module("repro.transforms.compound")
    original = compound_module.compound

    def drops_last_statement(program, model):
        outcome = original(program, model)
        body = outcome.program.body[:-1]
        return dataclasses.replace(
            outcome, program=dataclasses.replace(outcome.program, body=body)
        )

    monkeypatch.setattr(compound_module, "compound", drops_last_statement)
    result, _ = run.execute("compile", 3, 0.2, False, ("jacobi",))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_wrong_reuse_count_is_counted_failed(monkeypatch):
    import repro.cache.reuse as reuse

    original = reuse.reuse_profile

    def miscounts(*args, **kwargs):
        profile = original(*args, **kwargs)
        profile.accesses += 1
        return profile

    monkeypatch.setattr(reuse, "reuse_profile", miscounts)
    result, _ = run.execute("diagnose", 3, 0.2, False, TINY["diagnose"])
    assert result["failed"] == result["attempted"]


def test_wrong_served_miss_after_is_counted_failed(monkeypatch):
    import repro.server.handlers as handlers

    original = handlers._HANDLERS["optimize"]

    def skewed(*args):
        payload = original(*args)
        payload["locality"]["miss_after"] += 0.25
        return payload

    monkeypatch.setitem(handlers._HANDLERS, "optimize", skewed)
    result, lines = run.execute("serve", 3, 0.5, False, TINY["serve"])
    assert result["failed"] > 0
    assert any("miss_after" in line for line in lines)
