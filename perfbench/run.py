"""Pipeline benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile``, ``simulate``, ``diagnose`` and ``serve`` (see
perfbench/README.md for what each measures and why). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is the separate traced run:
it records spans around the calls into each ``repro`` module, prints the
ranked "where the time goes" table and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

from serve import ServeWorkload, ledger_dir
from stats import (
    END_TO_END,
    NEUTRAL,
    PER_LAYER,
    QUALITY,
    SpeedProbe,
    geomean,
    normalize,
    per_program_medians,
    percentile,
    pooled,
    tail_level,
)
from tracing import Tracer, layer_table
from workloads import BATCH, add_cache_deltas, cache_counts, clear_memo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up repeats: at least SETUP_MIN_REPS, and more (up to
#: SETUP_MAX_REPS) until SETUP_MIN_CPU_S of set-up has been timed, so a
#: cheap set-up is not one short, noisy sample.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 500
SETUP_MIN_CPU_S = 2.0
WORKLOADS = ("compile", "simulate", "diagnose", "serve")
#: Passes whose order the printed order digest covers.
DIGEST_PASSES = 8


@dataclass
class Op:
    program: str
    pass_index: int
    cpu_ms: float
    wall_ms: float
    output: object
    error: str | None
    traced: bool
    start: float  # perf_counter when the op began


@dataclass
class Run:
    """What a workload run leaves behind for the metric builders."""

    ops: list
    verdicts: list  # a failure reason or None, one per op
    complete_passes: int
    setup_cpu: list  # CPU s of each set-up, scaled to the reference speed
    setup_wall_first: float
    order_digest: str
    quality: dict
    layer: dict  # per-layer metrics (traced runs only)
    notes: list  # human-readable lines printed before the result
    speed: object  # the run's stats.SpeedProbe
    passes: list = field(default_factory=list)  # serve: per-pass records


def time_setup(workload, speed) -> tuple[list, float]:
    """Set up repeatedly from cold memo caches; CPU seconds of each
    repetition at the reference speed, plus the unscaled wall time of the
    first repetition alone."""

    cpu, timed, first_wall = [], [], 0.0
    while len(cpu) < SETUP_MIN_REPS or (
        sum(cpu) < SETUP_MIN_CPU_S and len(cpu) < SETUP_MAX_REPS
    ):
        clear_memo()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        workload.setup()
        cpu.append(time.process_time() - cpu0)
        timed.append((wall0, time.perf_counter()))
        if len(cpu) == 1:
            first_wall = timed[0][1] - wall0
        speed.sample_if_due()
    gc.collect()
    gc.freeze()  # set-up objects stay out of the measured collections
    scaled = [c * speed.factor(*span) for c, span in zip(cpu, timed)]
    return scaled, first_wall


def pass_order(programs: list, seed: int, pass_index: int) -> list:
    order = list(programs)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def order_digest(programs: list, seed: int) -> str:
    """A digest of the first DIGEST_PASSES pass orders of ``seed``."""
    text = ";".join(
        ",".join(pass_order(programs, seed, p)) for p in range(DIGEST_PASSES)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Batch workloads (compile, simulate, diagnose)


def run_batch(workload, seed: int, seconds: float, trace: bool) -> Run:
    speed = SpeedProbe()
    setup_cpu, setup_wall = time_setup(workload, speed)
    tracer = Tracer() if trace else None
    deltas: dict[str, list] = {}
    ops: list[Op] = []

    def run_op(name: str, pass_index: int, traced: bool) -> None:
        if workload.cold:
            clear_memo()
        before = cache_counts() if traced else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        output, error = None, None
        try:
            if traced:
                with tracer:
                    output = tracer.run("op", workload.op, (name,), op=len(ops))
            else:
                output = workload.op(name)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        cpu = (time.process_time() - cpu0) * 1000.0
        wall = (time.perf_counter() - wall0) * 1000.0
        if traced:
            add_cache_deltas(deltas, before, cache_counts())
        ops.append(Op(name, pass_index, cpu, wall, output, error, traced, wall0))
        if not traced:  # samples follow untraced ops, as in an untraced run
            speed.sample_if_due()

    deadline = time.perf_counter() + seconds
    pass_index = complete = 0
    while True:
        for name in pass_order(workload.programs, seed, pass_index):
            if ops and time.perf_counter() >= deadline:
                break
            run_op(name, pass_index, traced=False)
            if trace:
                run_op(name, pass_index, traced=True)
        else:
            complete += 1
            pass_index += 1
            continue
        break

    first: dict[str, object] = {}
    for op in ops:
        if op.error is None:
            first.setdefault(op.program, op.output)
    reasons = {}
    for name, output in first.items():
        try:
            reasons[name] = workload.check(name, output)
        except Exception as exc:
            reasons[name] = f"check raised {type(exc).__name__}: {exc}"
    verdicts = []
    for op in ops:
        if op.error is not None:
            verdicts.append(op.error)
        elif reasons[op.program] is not None:
            verdicts.append(reasons[op.program])
        elif op.output != first[op.program]:
            verdicts.append("output differs from the program's first op")
        else:
            verdicts.append(None)

    layer, notes = {}, []
    if trace:
        layer, notes = batch_layers(workload, ops, tracer, deltas, first)
    return Run(
        ops=ops,
        verdicts=verdicts,
        complete_passes=complete,
        setup_cpu=setup_cpu,
        setup_wall_first=setup_wall,
        order_digest=order_digest(workload.programs, seed),
        quality=workload.quality(first) if first else {},
        layer=layer,
        notes=notes,
        speed=speed,
    )


def overhead_pct(ops: list) -> float:
    """Geomean over programs of traced / untraced median CPU, as %."""

    plain = per_program_medians((o.program, o.cpu_ms) for o in ops if not o.traced)
    traced = per_program_medians((o.program, o.cpu_ms) for o in ops if o.traced)
    both = [traced[p] / plain[p] for p in traced if p in plain and plain[p] > 0]
    return (geomean(both) - 1.0) * 100.0 if both else 0.0


def span_layers(tracer, n_ops: int, deltas: dict) -> dict:
    """Per-layer metrics every workload derives from its spans."""
    rows = tracer.self_times()
    n = max(n_ops, 1)

    def self_ms(*names) -> float:
        return sum(rows[s]["self_ns"] for s in names if s in rows) / 1e6 / n

    def calls(name) -> float:
        return rows[name]["calls"] / n if name in rows else 0.0

    def ratio(cache) -> float:
        hits, misses = deltas.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    counters = tracer.counters
    parse_s = self_ms("frontend.parse") * n / 1000.0
    block_s = self_ms("cache.access_block") * n / 1000.0
    return {
        "frontend.parse.self_ms": self_ms("frontend.parse"),
        "frontend.parse.kb_per_s": (
            counters["frontend.parse.bytes"] / 1024.0 / parse_s if parse_s else 0.0
        ),
        "ir.validate.self_ms": self_ms("ir.validate"),
        "ir.pretty.self_ms": self_ms("ir.pretty"),
        "dependence.region.self_ms": self_ms("dependence.region", "dependence.pair"),
        "dependence.pair_tests": deltas.get("dep.cache", (0, 0))[1] / n,
        "dependence.cache_hit_ratio": ratio("dep.cache"),
        "model.self_ms": self_ms("model.nestinfo", "model.order", "model.oracle"),
        "model.nestinfo.misses": deltas.get("model.nestinfo.cache", (0, 0))[1] / n,
        "model.nestinfo.hit_ratio": ratio("model.nestinfo.cache"),
        "model.oracle.hit_ratio": ratio("oracle.analytic.cache"),
        "transforms.compound.self_ms": self_ms("transforms.compound"),
        "locality.predict.self_ms": self_ms("locality.predict"),
        "locality.predict.calls": calls("locality.predict"),
        "exec.simulate.self_ms": self_ms("exec.simulate"),
        "exec.blocktrace.compile.self_ms": self_ms("exec.blocktrace.compile"),
        "exec.blocktrace.run.self_ms": self_ms("exec.blocktrace.run"),
        "exec.accesses": counters["exec.accesses"] / n,
        "exec.blocks": (
            counters["exec.accesses"] / counters["exec.blocks"]
            if counters["exec.blocks"] else 0.0
        ),
        "exec.block_fallbacks": (
            rows["exec.blocktrace.compile"]["raised"] / n
            if "exec.blocktrace.compile" in rows else 0.0
        ),
        "cache.access_block.self_ms": self_ms("cache.access_block"),
        "cache.accesses_per_s": (
            counters["exec.accesses"] / block_s if block_s else 0.0
        ),
        "cache.reuse_profile.self_ms": self_ms("cache.reuse_profile"),
        "cache.reuse_profile.accesses": counters["cache.reuse_profile.accesses"] / n,
        "lint.program.self_ms": self_ms("lint.program"),
        "verify.depforce.self_ms": self_ms("verify.depforce"),
        "verify.depforce.calls": calls("verify.depforce"),
        "verify.state.self_ms": self_ms("verify.state"),
        "autotune.self_ms": self_ms("autotune"),
        "server.execute.self_ms": self_ms("server.execute"),
        "op.unspanned_ms": self_ms("op"),
    }


def batch_layers(workload, ops, tracer, deltas, first):
    traced = [o for o in ops if o.traced]
    overhead = overhead_pct(ops)
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(span_layers(tracer, len(traced), deltas))
    layer.update(workload.layer_counts(first))
    layer["trace.overhead_pct"] = overhead
    write_spans(tracer, workload.name)
    return layer, [layer_table(tracer, len(traced), overhead)]


def write_spans(tracer, name: str) -> None:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{name}-{os.getpid()}.jsonl"))


# ---------------------------------------------------------------------------
# Serve


def run_serve(workload, seed: int, seconds: float, trace: bool) -> Run:
    ledger = ledger_dir(ROOT)
    saved_env = {k: os.environ.get(k) for k in ("REPRO_LEDGER_DIR", "REPRO_LEDGER")}
    os.environ["REPRO_LEDGER_DIR"] = ledger
    os.environ["REPRO_LEDGER"] = "1"
    restore_meter = workload.meter()
    try:
        return _serve(workload, seed, seconds, trace)
    finally:
        restore_meter()
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(ledger, ignore_errors=True)


def _serve(workload, seed, seconds, trace) -> Run:
    speed = SpeedProbe()
    setup_cpu, setup_wall = time_setup(workload, speed)
    tracer = Tracer() if trace else None
    replies: list = []
    passes: list[dict] = []  # per pass: cpu, wall, replies, metrics, traced
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while not replies or time.perf_counter() < deadline:
        traced = trace and pass_index > 0
        stream = workload.stream(seed, pass_index)
        before, start = len(replies), len(workload.server_cpu)
        counts0 = cache_counts()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if traced:
            with tracer:
                metrics = workload.run_pass(
                    stream, pass_index, deadline, replies, speed, tracer
                )
        else:
            metrics = workload.run_pass(stream, pass_index, deadline, replies, speed)
        wall1 = time.perf_counter()
        passes.append({
            "cpu_s": time.process_time() - cpu0,
            "wall_s": wall1 - wall0,
            "span": (wall0, wall1),
            "replies": replies[before:],
            "server_cpu": workload.server_cpu[start:],
            "metrics": metrics,
            "traced": traced,
            "complete": len(replies) - before == len(stream),
            "counts": (counts0, cache_counts()),
        })
        pass_index += 1

    verdicts = workload.judge(replies)
    ops = [
        Op(r.request.program, r.pass_index, 0.0, r.latency_ms, r, None, False, r.start)
        for r in replies
    ]
    layer, notes = {}, []
    if trace:
        layer, notes = serve_layers(workload, passes, tracer)
    return Run(
        ops=ops,
        verdicts=verdicts,
        complete_passes=sum(p["complete"] for p in passes),
        setup_cpu=setup_cpu,
        setup_wall_first=setup_wall,
        order_digest=workload.stream_digest(seed),
        quality={},
        layer=layer,
        notes=notes,
        speed=speed,
        passes=passes,
    )


def serve_layers(workload, passes, tracer):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    replies = [r for p in traced for r in p["replies"]]
    n = len(replies)
    deltas: dict[str, list] = {}
    for p in traced:
        add_cache_deltas(deltas, *p["counts"])

    def per_request_cpu(group):
        count = sum(len(p["replies"]) for p in group)
        return sum(p["cpu_s"] for p in group) / count if count else 0.0

    plain_cpu = per_request_cpu(plain)
    overhead = (per_request_cpu(traced) / plain_cpu - 1.0) * 100.0 if plain_cpu else 0.0
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(span_layers(tracer, n, deltas))
    if replies:
        elapsed = [r.elapsed_ms for r in replies]
        level = tail_level(len(elapsed))
        hits = sum(p["metrics"]["cache"]["hits"] for p in traced)
        misses = sum(p["metrics"]["cache"]["misses"] for p in traced)
        layer.update({
            "server.elapsed_ms_p50": percentile(elapsed, 50.0),
            "server.elapsed_ms_tail": percentile(elapsed, level),
            "server.overhead_ms_p50": percentile(
                [r.latency_ms - r.elapsed_ms for r in replies], 50.0
            ),
            "server.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.singleflight.coalesced": sum(
                p["metrics"]["singleflight"]["coalesced"] for p in traced
            ) / len(traced),
            "server.non200": float(sum(r.status != 200 for r in replies)),
        })
    layer["trace.overhead_pct"] = overhead
    write_spans(tracer, workload.name)
    note = (
        "ops are client requests; the server's spans run on its worker "
        "thread, outside the request span"
    )
    return layer, [layer_table(tracer, max(n, 1), overhead, note)]


# ---------------------------------------------------------------------------
# End-to-end metrics


def peak_rss_mb(speed) -> float:
    """The process's peak resident set, less what the speed probe holds."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak - speed.footprint_mb


def batch_metrics(workload, run: Run) -> tuple[dict, dict]:
    factor = run.speed.factor
    ops = run.ops
    scale = {id(o): factor(o.start, o.start + o.wall_ms / 1000.0) for o in ops}
    cpu = {id(o): o.cpu_ms * scale[id(o)] for o in ops}
    wall = {id(o): o.wall_ms * scale[id(o)] for o in ops}
    balanced = [o for o in ops if o.pass_index < run.complete_passes] or ops
    design = workload.design_passes * len(workload.programs)
    medians = per_program_medians((o.program, cpu[id(o)]) for o in ops)
    cpu_p50, cpu_tail, level, n = pooled([cpu[id(o)] for o in balanced], design)
    lat_p50, lat_tail, _, _ = pooled([wall[id(o)] for o in balanced], design)
    metrics = {
        "cpu_ms_geomean": geomean(medians.values()),
        "cpu_ms_p50": cpu_p50,
        "cpu_ms_tail": cpu_tail,
        "ops_per_cpu_s": 1000.0 * len(balanced) / sum(cpu[id(o)] for o in balanced),
        "latency_ms_p50": lat_p50,
        "latency_ms_tail": lat_tail,
        "req_per_s": 1000.0 * len(balanced) / sum(wall[id(o)] for o in balanced),
    }
    shadow = {
        "tail_level": level,
        "pooled_samples": n,
        "cpu_ms_p90_all_ops": percentile([o.cpu_ms for o in ops], 90.0),
        "raw_cpu_ms_geomean": geomean(
            per_program_medians((o.program, o.cpu_ms) for o in ops).values()
        ),
    }
    return metrics, shadow


def serve_metrics(workload, run: Run) -> tuple[dict, dict]:
    factor = run.speed.factor
    program_of = workload.program_of_digest()

    def cold_cpu(passes, scaled=True):
        return [
            (program_of[digest], ms * (factor(start) if scaled else 1.0))
            for p in passes for _, digest, ms, start in p["server_cpu"]
        ]

    complete = [p for p in run.passes if p["complete"]] or run.passes
    replies = [r for p in complete for r in p["replies"]]
    design = workload.design_passes
    # A run holds only two or three passes, too few for a pool of cold
    # requests to rank the same way twice: its percentiles are taken over
    # each program's median instead.
    medians = list(per_program_medians(cold_cpu(run.passes)).values())
    cpu_p50, cpu_tail, level, n = pooled(medians, len(medians))
    lat_p50, lat_tail, lat_level, lat_n = pooled(
        [r.latency_ms * factor(r.start) for r in replies],
        design * workload.pass_size,
    )
    pass_factor = [factor(*p["span"]) for p in complete]
    metrics = {
        "cpu_ms_geomean": geomean(medians),
        "cpu_ms_p50": cpu_p50,
        "cpu_ms_tail": cpu_tail,
        "ops_per_cpu_s": len(replies) / sum(
            p["cpu_s"] * f for p, f in zip(complete, pass_factor)
        ),
        "latency_ms_p50": lat_p50,
        "latency_ms_tail": lat_tail,
        "req_per_s": len(replies) / sum(
            p["wall_s"] * f for p, f in zip(complete, pass_factor)
        ),
    }
    raw = cold_cpu(run.passes, scaled=False)
    shadow = {
        "tail_level": level,
        "pooled_samples": n,
        "latency_tail_level": lat_level,
        "latency_samples": lat_n,
        "cpu_ms_p90_all_ops": percentile([ms for _, ms in raw], 90.0),
        "raw_cpu_ms_geomean": geomean(per_program_medians(raw).values()),
    }
    return metrics, shadow


def end_to_end(workload, run: Run) -> tuple[dict, dict]:
    """End-to-end metrics, every time already at the reference speed."""

    if workload.name == "serve":
        metrics, shadow = serve_metrics(workload, run)
    else:
        metrics, shadow = batch_metrics(workload, run)
    attempted = len(run.ops)
    failed = sum(v is not None for v in run.verdicts)
    metrics["setup_s"] = statistics.median(run.setup_cpu)
    metrics["peak_rss_mb"] = peak_rss_mb(run.speed)
    metrics["ok_ratio"] = (attempted - failed) / attempted
    for name in QUALITY:
        metrics[name] = run.quality.get(name, NEUTRAL)
    shadow["setup_wall_first_s"] = run.setup_wall_first
    shadow["complete_passes"] = run.complete_passes
    shadow["speed_factor"] = run.speed.factor()
    shadow["probe_footprint_mb"] = run.speed.footprint_mb
    return metrics, shadow


# ---------------------------------------------------------------------------


def make_workload(name: str, programs=None):
    if name == "serve":
        return ServeWorkload(programs)
    return BATCH[name](programs)


def execute(name: str, seed: int, seconds: float, trace: bool, programs=None):
    """Run one workload; returns (result dict, human lines)."""
    workload = make_workload(name, programs)
    runner = run_serve if name == "serve" else run_batch
    run = runner(workload, seed, seconds, trace)
    attempted = len(run.ops)
    failed = sum(v is not None for v in run.verdicts)
    lines = [
        f"workload {name}: seed {seed}, order digest {run.order_digest}",
        f"speed factor {run.speed.factor():.4f} from {len(run.speed.samples)} "
        "calibration samples: times below are at the reference speed",
    ]
    lines += run.notes
    reasons = sorted({v for v in run.verdicts if v is not None})
    lines += [f"FAILED: {reason}" for reason in reasons[:20]]
    if trace:
        factor = run.speed.factor()
        table = PER_LAYER
        values = {
            metric: normalize(run.layer[metric], unit, factor)
            for metric, (unit, _) in table.items()
        }
    else:
        values, shadow = end_to_end(workload, run)
        table = END_TO_END
        lines.append("shadow " + json.dumps(shadow, sort_keys=True))
    metrics = {}
    for metric, (unit, _) in table.items():
        value = float(values[metric])
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"  {metric:<34} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
