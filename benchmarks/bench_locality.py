"""Analytic locality prediction vs trace-driven simulation.

For each gate kernel the analytic predictor
(:func:`repro.locality.predict_locality`) and the exact trace-driven
reuse-distance profile are compared on fully-associative LRU hit rates
at two geometries (fa1 = 64KB/128B lines, fa2 = 8KB/32B lines), and the
predictor is timed against the exact reuse-distance profile it replaces
(:func:`repro.cache.reuse.reuse_profile` over the block trace). Two
gates:

* **accuracy** — |predicted - simulated| warm hit rate within 2
  percentage points on every (kernel, geometry) pair;
* **speedup** — prediction at least 50x faster than the exact profile
  on every full-size (kernel, geometry) pair.

The measured trajectory is written to ``BENCH_locality.json`` so future
PRs can track both accuracy and speedup. Runs standalone
(``python benchmarks/bench_locality.py [--quick]``) and under pytest
(``pytest benchmarks/bench_locality.py``) without the pytest-benchmark
fixture. ``--quick`` uses small sizes and skips the speedup gate (tiny
kernels finish in microseconds either way; CI boxes are noisy) but
still enforces the 2pp accuracy gate and writes the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.cache.reuse import reuse_profile
from repro.locality import predict_locality
from repro.suite import get_entry

ERROR_BOUND_PP = 2.0
SPEEDUP_TARGET = 50.0

#: What the speedups are measured against; ledger history compares only
#: runs with the same baseline.
BASELINE = "reuse_profile"

#: name -> (line bytes, capacity in lines); mirrors table4_analytic.
FA_CONFIGS = {
    "fa1": (128, 512),  # 64 KB
    "fa2": (32, 256),  # 8 KB
}

#: Same gate kernels and sizes as bench_trace_engine.py.
FULL_KERNELS = [
    ("jacobi", 513),
    ("adi", 481),
    ("erlebacher_like", 97),
    ("cholesky", 161),
    ("transpose", 769),
]

QUICK_KERNELS = [
    ("jacobi", 65),
    ("adi", 49),
    ("erlebacher_like", 17),
    ("cholesky", 41),
    ("transpose", 97),
]

DEFAULT_JSON_PATH = os.environ.get(
    "REPRO_BENCH_LOCALITY",
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_locality.json",
    ),
)


def measure(kernels, timed: bool) -> list[dict]:
    """Accuracy (and optionally speedup) rows, one per (kernel, config)."""
    rows = []
    for name, n in kernels:
        program = get_entry(name).program(n)
        for config, (line, lines) in FA_CONFIGS.items():
            start = time.perf_counter()
            trace = reuse_profile(program, line=line)
            trace_s = time.perf_counter() - start if timed else None
            start = time.perf_counter()
            prediction = predict_locality(program, line=line)
            predict_s = time.perf_counter() - start
            simulated = trace.hit_rate_for_capacity(lines)
            predicted = prediction.hit_rate_for_capacity(lines)
            rows.append(
                {
                    "kernel": name,
                    "n": n,
                    "config": config,
                    "accesses": trace.accesses,
                    "simulated": simulated,
                    "predicted": predicted,
                    "error_pp": abs(predicted - simulated) * 100.0,
                    "predict_s": predict_s,
                    "trace_s": trace_s,
                    "speedup": (trace_s / predict_s) if trace_s else None,
                }
            )
    return rows


def run(quick: bool = False) -> dict:
    kernels = QUICK_KERNELS if quick else FULL_KERNELS
    rows = measure(kernels, timed=not quick)
    worst = max(r["error_pp"] for r in rows)
    speedups = [r["speedup"] for r in rows if r["speedup"] is not None]
    return {
        "quick": quick,
        "baseline": BASELINE,
        "error_bound_pp": ERROR_BOUND_PP,
        "speedup_target": SPEEDUP_TARGET,
        "kernels": rows,
        "worst_error_pp": worst,
        "min_speedup": min(speedups) if speedups else None,
    }


def write_json(payload: dict, path: str = DEFAULT_JSON_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# pytest entry points (quick-sized so `pytest benchmarks/` stays fast)
# ----------------------------------------------------------------------
def test_prediction_within_two_points_quick():
    rows = measure(QUICK_KERNELS, timed=False)
    offenders = [
        (r["kernel"], r["config"], r["error_pp"])
        for r in rows
        if r["error_pp"] > ERROR_BOUND_PP
    ]
    assert not offenders, offenders


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, no speedup gate (accuracy gate only)",
    )
    parser.add_argument("--json", default=DEFAULT_JSON_PATH)
    parser.add_argument(
        "--no-ledger", action="store_true", help="skip the run-ledger append"
    )
    args = parser.parse_args(argv)

    payload = run(quick=args.quick)
    write_json(payload, args.json)
    if not args.no_ledger:
        from bench_trace_engine import ledger_append

        ledger_append("locality", list(argv or sys.argv[1:]), payload)

    for row in payload["kernels"]:
        speed = (
            f" predict={row['predict_s'] * 1e3:7.2f} ms"
            f" trace={row['trace_s']:7.2f} s"
            f" speedup={row['speedup']:8.0f}x"
            if row["speedup"] is not None
            else f" predict={row['predict_s'] * 1e3:7.2f} ms"
        )
        print(
            f"{row['kernel']:>16s} n={row['n']:<4d} {row['config']} "
            f"sim={row['simulated']:.4f} pred={row['predicted']:.4f} "
            f"err={row['error_pp']:4.2f}pp{speed}"
        )
    print(f"artifact: {args.json}")
    ok = payload["worst_error_pp"] <= ERROR_BOUND_PP
    print(
        f"accuracy: worst error {payload['worst_error_pp']:.2f}pp "
        f"(bound {ERROR_BOUND_PP}pp): {'PASS' if ok else 'FAIL'}"
    )
    if not args.quick:
        fast = payload["min_speedup"] is not None and (
            payload["min_speedup"] >= SPEEDUP_TARGET
        )
        print(
            f"speedup: min {payload['min_speedup']:.0f}x "
            f"(target {SPEEDUP_TARGET:.0f}x): {'PASS' if fast else 'FAIL'}"
        )
        ok = ok and fast
    else:
        print("PASS (quick mode: speedup gate skipped)" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
