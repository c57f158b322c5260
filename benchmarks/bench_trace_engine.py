"""Block trace engine vs. the interpreter oracle.

Times trace-driven simulation on the block engine (``simulate(p)``)
against the validating interpreter (``simulate(p, init=...,
compiled=False)``) on a set of suite kernels, asserts the two are
bit-identical (accesses/hits/cold/conflict counts, cycles, operations,
and therefore Table 4 hit rates), checks that the block engine compiles
every ``all`` entry at every instance and every ``examples/*.f`` program
(so ``simulate`` never falls back to the interpreter), and writes the
measured trajectory to ``BENCH_trace.json`` so future PRs can track it.

Kernel sizes are deliberately *not* multiples of the cache size: when
``8*n*n`` is a multiple of ``sets * line`` every array maps onto the same
set sequence and the interleaved conflict stream is an artifact of the
benchmark geometry, not of the kernel. Odd sizes measure the honest case.

Runs standalone (``python benchmarks/bench_trace_engine.py [--quick]``)
and under pytest (``pytest benchmarks/bench_trace_engine.py``).
``--quick`` uses small sizes and skips the speedup gate (CI boxes are
noisy) but still enforces coverage and bit-identical results, and still
writes the JSON artifact. The interpreter runs once per kernel; the
block engine is timed as the median of ``--repeats`` runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import time

from repro.exec import compile_block_trace, simulate
from repro.frontend import parse_program
from repro.suite import get_entry, get_set
from repro.suite.registry import DEFAULT_INSTANCES

SPEEDUP_TARGET = 5.0
MIN_FAST_KERNELS = 3

#: What the speedups are measured against; ledger history compares only
#: runs with the same baseline.
BASELINE = "interpreter"

#: (kernel, n) pairs for the full run. Sizes chosen so each kernel issues
#: roughly 1-13M accesses — large enough that per-access Python overhead
#: dominates and the batched path's advantage is stable run to run.
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
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_JSON_PATH = os.environ.get(
    "REPRO_BENCH_TRACE", os.path.join(REPO_ROOT, "BENCH_trace.json")
)


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def coverage_programs():
    """(label, program) for every ``all`` entry at every instance, then
    every ``examples/*.f`` program."""
    for entry in get_set("all").entries():
        for instance in DEFAULT_INSTANCES:
            yield f"{entry.name}@{instance}", entry.program(instance=instance)
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.f"))):
        with open(path) as handle:
            yield os.path.basename(path), parse_program(handle.read())


def suite_coverage() -> list[str]:
    """Programs the block engine fails to compile (should be [])."""
    failures = []
    for label, program in coverage_programs():
        try:
            compile_block_trace(program)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            failures.append(f"{label}: {exc}")
    return failures


def measure(kernels, repeats: int = 1) -> list[dict]:
    """Time the block engine against the interpreter per kernel and pin
    bit-identical results."""
    rows = []
    for name, n in kernels:
        entry = get_entry(name)
        program = entry.program(n)
        start = time.perf_counter()
        interp = simulate(program, init=entry.init, compiled=False)
        interp_s = time.perf_counter() - start
        block = simulate(program)
        block_key = (
            block.cache.accesses,
            block.cache.hits,
            block.cache.cold_misses,
            block.cache.conflict_misses,
            block.cycles,
            block.operations,
        )
        interp_key = (
            interp.cache.accesses,
            interp.cache.hits,
            interp.cache.cold_misses,
            interp.cache.conflict_misses,
            interp.cycles,
            interp.operations,
        )
        assert block_key == interp_key, (name, block_key, interp_key)
        assert block.cache.hit_rate() == interp.cache.hit_rate()
        assert block.cache.hit_rate(include_cold=True) == interp.cache.hit_rate(
            include_cold=True
        )
        block_s = _median_seconds(lambda p=program: simulate(p), repeats)
        rows.append(
            {
                "kernel": name,
                "n": n,
                "accesses": block.cache.accesses,
                "hit_rate": block.cache.hit_rate(),
                "block_s": block_s,
                "interp_s": interp_s,
                "speedup": interp_s / block_s,
            }
        )
    return rows


def run(quick: bool = False, repeats: int | None = None) -> dict:
    kernels = QUICK_KERNELS if quick else FULL_KERNELS
    if repeats is None:
        repeats = 1 if quick else 3
    failures = suite_coverage()
    rows = measure(kernels, repeats)
    fast = [r for r in rows if r["speedup"] >= SPEEDUP_TARGET]
    return {
        "quick": quick,
        "baseline": BASELINE,
        "speedup_target": SPEEDUP_TARGET,
        "min_fast_kernels": MIN_FAST_KERNELS,
        "kernels": rows,
        "fast_kernels": [r["kernel"] for r in fast],
        "coverage_failures": failures,
    }


def write_json(payload: dict, path: str = DEFAULT_JSON_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# pytest entry points (quick-sized so `pytest benchmarks/` stays fast)
# ----------------------------------------------------------------------
def test_block_engine_compiles_whole_suite():
    assert suite_coverage() == []


def test_block_matches_interpreter():
    # measure() asserts identity of stats, cycles, ops, and hit rates.
    rows = measure(QUICK_KERNELS, repeats=1)
    assert len(rows) == len(QUICK_KERNELS)


def ledger_append(name: str, argv: list[str], payload: dict) -> None:
    """Record the bench trajectory in the run ledger (best effort)."""
    from repro.obs import ledger

    try:
        ledger.append_record(
            ledger.make_record(
                f"bench.{name}",
                argv,
                config={"bench": name, "quick": payload.get("quick", False)},
                bench=payload,
            )
        )
    except ledger.LedgerError as exc:
        print(f"warning: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, no speedup gate (coverage + equivalence only)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--json", default=DEFAULT_JSON_PATH)
    parser.add_argument(
        "--no-ledger", action="store_true", help="skip the run-ledger append"
    )
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, repeats=args.repeats)
    write_json(payload, args.json)
    if not args.no_ledger:
        ledger_append("trace", list(argv or sys.argv[1:]), payload)

    for row in payload["kernels"]:
        print(
            f"{row['kernel']:>16s} n={row['n']:<4d} "
            f"accesses={row['accesses']:>9d} "
            f"block={row['block_s'] * 1e3:8.1f} ms "
            f"interp={row['interp_s'] * 1e3:9.1f} ms "
            f"speedup={row['speedup']:5.2f}x"
        )
    if payload["coverage_failures"]:
        print("FAIL: block engine cannot compile:")
        for line in payload["coverage_failures"]:
            print(f"  {line}")
        return 1
    print(f"coverage: all {len(list(coverage_programs()))} programs compile")
    print(f"artifact: {args.json}")
    if args.quick:
        print("PASS (quick mode: speedup gate skipped)")
        return 0
    ok = len(payload["fast_kernels"]) >= MIN_FAST_KERNELS
    print(
        f">= {SPEEDUP_TARGET:.0f}x on {len(payload['fast_kernels'])} kernels "
        f"(need {MIN_FAST_KERNELS}): {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
