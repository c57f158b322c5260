"""Steadiness report: repeat the benchmark and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --raw perfbench/out/set1.json \\
        --report perfbench/out/set1.md
    python3 perfbench/steadiness.py --runs 10 --baseline perfbench/out/set1.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, seeds ``--first-seed`` .. ``--first-seed + runs - 1``. For every
(end-to-end metric, workload) it reports the median and quartiles over
the runs, the spread (interquartile distance over the median) next to
the metric's bound, and with ``--baseline`` how far the median moved
from an earlier set. Two constructions that earlier benchmark designs
used sit in the same table for contrast, marked "(shadow)": the p90 of
CPU time pooled over every op of mixed programs, a set-up time that is
one short wall-clock sample, and the geomean before scaling to the
reference speed. The run's mean speed factor is shown the same way, so
that raw over scaled time can be compared across workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

#: shadow key -> the metric whose bound it is judged against.
SHADOWS = {
    "cpu_ms_p90_all_ops": "cpu_ms_tail",
    "setup_wall_first_s": "setup_s",
    "raw_cpu_ms_geomean": "cpu_ms_geomean",
    "speed_factor": "cpu_ms_geomean",
}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    shadow = next(
        json.loads(line[len("shadow "):]) for line in lines
        if line.startswith("shadow ")
    )
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": time.perf_counter() - start,
        "result": result,
        "shadow": shadow,
    }


def summarize(raw: dict, bench: dict, baseline: dict | None) -> tuple[str, bool]:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    rows = [
        "| workload | metric | median | q1 | q3 | spread | bound | "
        "spread/bound | median moved |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    steady = True
    for workload, runs in raw.items():
        series = {
            name: [r["result"]["metrics"][name]["value"] for r in runs]
            for name in bounds
        }
        series.update({
            f"{key} (shadow)": [r["shadow"][key] for r in runs]
            for key in SHADOWS
        })
        for name, values in series.items():
            metric = name.split(" ")[0]
            bound = bounds.get(metric) or bounds[SHADOWS[metric]]
            q1, median, q3 = quartiles(values)
            share = spread(values)
            moved = ""
            if baseline and workload in baseline and "(shadow)" not in name:
                old = [r["result"]["metrics"][name]["value"]
                       for r in baseline[workload]]
                old_median = quartiles(old)[1]
                change = (median - old_median) / old_median if old_median else 0.0
                worse = change if better[name] == "lower" else -change
                moved = f"{change:+.2%}" + (" WORSE" if worse > bound else "")
                steady &= worse <= bound
            if "(shadow)" not in name:
                steady &= share <= bound
            rows.append(
                f"| {workload} | {name} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{share:.2%} | {bound:.0%} | {share / bound:.2f} | {moved} |"
            )
        failed = sum(r["result"]["failed"] for r in runs)
        rows.append(
            f"| {workload} | (runs: {len(runs)}, failed ops: {failed}, "
            f"wall s per run: {max(r['wall_s'] for r in runs):.1f} max) "
            "| | | | | | | |"
        )
        steady &= failed == 0
    return "\n".join(rows), steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--raw", help="write every run's result to this JSON file")
    parser.add_argument("--report", help="write the markdown table to this file")
    parser.add_argument("--baseline", help="raw JSON of an earlier set")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    seconds = args.seconds or bench["run_seconds"]
    raw: dict[str, list] = {}
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            raw.setdefault(workload, []).append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    if args.raw:
        with open(args.raw, "w") as handle:
            json.dump(raw, handle)
    table, steady = summarize(raw, bench, baseline)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(table + "\n")
    print(table)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
