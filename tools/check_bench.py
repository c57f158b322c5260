#!/usr/bin/env python3
"""Perf-regression gate: fail CI when BENCH artifacts regress.

Usage::

    python tools/check_bench.py [--smoke] \\
        [--trace BENCH_trace.json] [--locality BENCH_locality.json] \\
        [--autotune BENCH_autotune.json] [--ledger DIR] [--tolerance 0.20]

Reads the benchmark artifacts written by ``benchmarks/bench_trace_engine.py``,
``benchmarks/bench_locality.py``, and ``benchmarks/bench_autotune.py``
plus (when present) the run ledger (``.repro/ledger.jsonl``) and applies
the gates:

* **coverage** — the block trace engine must compile every ``all``
  entry at every instance and every ``examples/*.f`` program
  (``coverage_failures`` empty), so ``simulate`` never falls back to
  the interpreter;
* **accuracy** — analytic-locality ``worst_error_pp`` within its bound
  (accuracy is deterministic, so this holds in smoke mode too);
* **search quality** — autotune regret within its bound on every kernel
  and the chosen config never worse than the compound algorithm
  (both deterministic, so they hold in smoke mode too);
* **speedup floors** (skipped with ``--smoke``: wall-clock gates are
  meaningless on noisy or quick-mode artifacts) — per-kernel speedup of
  the block engine over the interpreter at least
  ``speedup_target * (1 - tolerance)``, at least ``min_fast_kernels``
  kernels over target, and the locality predictor's ``min_speedup`` over
  the exact ``reuse_profile`` at least its target;
* **history** (when the ledger holds a previous non-quick bench record
  with the same ``baseline``) — per-kernel speedup must not drop more
  than ``tolerance`` below the previous ledgered run.

Exit status: 0 all gates pass, 1 regression, 2 usage/missing artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Fractional slack on wall-clock gates (speedups are bimodal between
#: machine classes; 20% absorbs same-machine jitter without letting a
#: real regression through).
DEFAULT_TOLERANCE = 0.20


def load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"missing bench artifact: {path} (exit 2)\n"
                         f"run the benchmark first, or pass --trace/--locality")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"unreadable bench artifact {path}: {exc}")


def check_trace(payload: dict, smoke: bool, tolerance: float) -> list[str]:
    """Gate failures from the trace-engine artifact."""
    failures = []
    if payload.get("coverage_failures"):
        for line in payload["coverage_failures"]:
            failures.append(f"trace coverage: block engine cannot compile {line}")
    if smoke or payload.get("quick"):
        return failures
    target = float(payload.get("speedup_target", 0.0))
    floor = target * (1.0 - tolerance)
    for row in payload.get("kernels", ()):
        if row["speedup"] < floor:
            failures.append(
                f"trace speedup: {row['kernel']} at {row['speedup']:.2f}x, "
                f"floor {floor:.2f}x (target {target:.0f}x - {tolerance:.0%})"
            )
    need = int(payload.get("min_fast_kernels", 0))
    fast = payload.get("fast_kernels", [])
    if len(fast) < need:
        failures.append(
            f"trace speedup: only {len(fast)} kernels >= {target:.0f}x "
            f"(need {need}): {fast}"
        )
    return failures


def check_locality(payload: dict, smoke: bool, tolerance: float) -> list[str]:
    """Gate failures from the analytic-locality artifact."""
    failures = []
    bound = float(payload.get("error_bound_pp", 0.0))
    worst = payload.get("worst_error_pp")
    if worst is not None and worst > bound:
        failures.append(
            f"locality accuracy: worst error {worst:.2f}pp exceeds "
            f"{bound:.1f}pp bound"
        )
    for row in payload.get("kernels", ()):
        if row["error_pp"] > bound:
            failures.append(
                f"locality accuracy: {row['kernel']}/{row['config']} at "
                f"{row['error_pp']:.2f}pp (bound {bound:.1f}pp)"
            )
    if smoke or payload.get("quick"):
        return failures
    target = float(payload.get("speedup_target", 0.0))
    floor = target * (1.0 - tolerance)
    minimum = payload.get("min_speedup")
    if minimum is not None and minimum < floor:
        failures.append(
            f"locality speedup: min {minimum:.0f}x under floor {floor:.0f}x "
            f"(target {target:.0f}x - {tolerance:.0%})"
        )
    return failures


def check_autotune(payload: dict, smoke: bool, tolerance: float) -> list[str]:
    """Gate failures from the autotune-search artifact."""
    failures = []
    bound = float(payload.get("regret_bound_pp", 0.0))
    worst = payload.get("worst_regret_pp")
    if worst is not None and worst > bound:
        failures.append(
            f"autotune regret: worst {worst:.2f}pp exceeds {bound:.1f}pp bound"
        )
    for row in payload.get("kernels", ()):
        if row["regret_pp"] > bound:
            failures.append(
                f"autotune regret: {row['kernel']} at {row['regret_pp']:.2f}pp "
                f"(bound {bound:.1f}pp)"
            )
        if not row.get("beats_compound", True):
            failures.append(
                f"autotune dominance: {row['kernel']} chose a config worse "
                f"than the compound algorithm"
            )
    if smoke or payload.get("quick"):
        return failures
    target = float(payload.get("speedup_target", 0.0))
    floor = target * (1.0 - tolerance)
    minimum = payload.get("min_speedup")
    if minimum is not None and minimum < floor:
        failures.append(
            f"autotune speedup: min {minimum:.0f}x under floor {floor:.0f}x "
            f"(target {target:.0f}x - {tolerance:.0%})"
        )
    return failures


def previous_bench(
    records: list[dict], kind: str, baseline: str | None = None
) -> dict | None:
    """Latest non-quick ledgered bench payload of the given kind whose
    speedups were measured against the same baseline."""
    for record in reversed(records):
        if record.get("kind") != kind:
            continue
        bench = record.get("bench") or {}
        if bench.get("quick") or bench.get("baseline") != baseline:
            continue
        return bench
    return None


def check_history(
    payload: dict, records: list[dict], kind: str, tolerance: float
) -> list[str]:
    """Per-kernel comparison against the previous ledgered run."""
    previous = previous_bench(records, kind, payload.get("baseline"))
    if previous is None:
        return []
    failures = []
    prior = {
        (r["kernel"], r.get("config")): r
        for r in previous.get("kernels", ())
        if r.get("speedup") is not None
    }
    for row in payload.get("kernels", ()):
        speedup = row.get("speedup")
        old = prior.get((row["kernel"], row.get("config")))
        if speedup is None or old is None:
            continue
        floor = old["speedup"] * (1.0 - tolerance)
        if speedup < floor:
            failures.append(
                f"{kind} history: {row['kernel']}"
                f"{'/' + row['config'] if row.get('config') else ''} fell to "
                f"{speedup:.2f}x from {old['speedup']:.2f}x "
                f"(floor {floor:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip wall-clock gates (coverage + accuracy only)",
    )
    parser.add_argument(
        "--trace", default=os.path.join(REPO_ROOT, "BENCH_trace.json")
    )
    parser.add_argument(
        "--locality", default=os.path.join(REPO_ROOT, "BENCH_locality.json")
    )
    parser.add_argument(
        "--autotune", default=os.path.join(REPO_ROOT, "BENCH_autotune.json")
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="ledger directory for history comparison (default: .repro "
        "via REPRO_LEDGER_DIR; pass a nonexistent dir to skip)",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)

    trace = load_json(args.trace)
    locality = load_json(args.locality)
    autotune = load_json(args.autotune)

    failures = []
    failures += check_trace(trace, args.smoke, args.tolerance)
    failures += check_locality(locality, args.smoke, args.tolerance)
    failures += check_autotune(autotune, args.smoke, args.tolerance)

    records: list[dict] = []
    try:
        from repro.obs.ledger import read_ledger

        records = read_ledger(args.ledger)
    except Exception:  # noqa: BLE001 - history is best-effort
        records = []
    if records and not args.smoke:
        failures += check_history(trace, records, "bench.trace", args.tolerance)
        failures += check_history(
            locality, records, "bench.locality", args.tolerance
        )
        failures += check_history(
            autotune, records, "bench.autotune", args.tolerance
        )

    mode = "smoke (coverage + accuracy)" if args.smoke else "full"
    print(f"check_bench: mode={mode} tolerance={args.tolerance:.0%} "
          f"ledger_records={len(records)}")
    print(f"  trace:    {len(trace.get('kernels', []))} kernels, "
          f"quick={trace.get('quick')}")
    print(f"  locality: {len(locality.get('kernels', []))} rows, "
          f"worst_error={locality.get('worst_error_pp', 0.0):.2f}pp")
    print(f"  autotune: {len(autotune.get('kernels', []))} kernels, "
          f"worst_regret={autotune.get('worst_regret_pp', 0.0):.2f}pp, "
          f"quick={autotune.get('quick')}")
    if failures:
        print(f"FAIL: {len(failures)} regression(s)")
        for line in failures:
            print(f"  {line}")
        return 1
    print("PASS: no bench regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
