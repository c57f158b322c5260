"""Model-driven autotuning vs exhaustive simulation: regret and speedup.

For each gate kernel the autotuner searches the permutation x tiling x
fusion space with the *analytic* cost oracle only, and the winner is
compared against a brute-force reference that scores **every** candidate
the search generated with the trace-driven cache simulator:

* **regret** — the simulated miss ratio of the model-chosen config minus
  the best simulated miss ratio over the whole candidate pool, in
  percentage points. Within 2pp on every kernel: trusting the analytic
  model costs almost nothing in result quality;
* **speedup** — the model-driven search must be at least 50x cheaper
  than simulating the same candidate pool (candidate generation time is
  charged to both sides; only the scoring method differs);
* **dominance** — the chosen config's predicted misses never exceed the
  paper's compound algorithm output (the search seeds it, so this is a
  regression check on the ranking).

The measured trajectory is written to ``BENCH_autotune.json`` so future
PRs can track search quality. Runs standalone
(``python benchmarks/bench_autotune.py [--quick]``) and under pytest
(``pytest benchmarks/bench_autotune.py``). ``--quick`` uses small sizes
and skips the speedup gate (tiny simulations finish in milliseconds; CI
boxes are noisy) but still enforces the regret and dominance gates and
writes the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.autotune import autotune
from repro.autotune.search import _sim_eval
from repro.experiments.common import run_sharded
from repro.suite import get_entry

REGRET_BOUND_PP = 2.0
SPEEDUP_TARGET = 50.0

#: Search geometry: the 8 KB / 32 B-line fa2 config whose analytic
#: predictions bench_locality gates to 2pp on the whole suite. At
#: 128-byte lines the predictor under-estimates capacity misses on
#: cholesky's triangular column accesses and misranks a predicted
#: near-tie (7pp simulated regret at n=97) — the model is only a
#: trustworthy search oracle inside its validated envelope, which is
#: exactly what this bench pins down.
LINE = 32
CAPACITY = 256
BUDGET = 64
BEAM = 4

#: Same gate kernels as the other benches, sized so the brute-force
#: simulation reference stays under a few minutes total.
FULL_KERNELS = [
    ("jacobi", 257),
    ("adi", 241),
    ("erlebacher_like", 33),
    ("cholesky", 129),
    ("transpose", 385),
]

#: Quick sizes still put every array clearly past the 8 KB cache —
#: right at the capacity boundary (jacobi n=33: 8.7 KB arrays) the
#: analytic threshold model can land on the wrong side and regret spikes.
QUICK_KERNELS = [
    ("jacobi", 65),
    ("adi", 25),
    ("erlebacher_like", 9),
    ("cholesky", 17),
    ("transpose", 49),
]

DEFAULT_JSON_PATH = os.environ.get(
    "REPRO_BENCH_AUTOTUNE",
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_autotune.json",
    ),
)

_EPS = 1e-9


def measure(kernels, jobs: int | None = None) -> list[dict]:
    """One row per kernel: search outcome, regret, and honest timings."""
    rows = []
    for name, n in kernels:
        program = get_entry(name).program(n)
        result = autotune(
            program,
            line=LINE,
            capacity=CAPACITY,
            budget=BUDGET,
            beam=BEAM,
            topk=0,
        )
        # Brute-force reference: simulate every candidate the search
        # generated. Sharded across workers for wall time, but the
        # *charged* cost is the serial sum of per-candidate seconds —
        # what a simulation-driven search would actually have to spend.
        calls = [(c.program, LINE, CAPACITY) for c in result.ranked]
        sim_rows = run_sharded(_sim_eval, calls, jobs)
        sim_ratios = {}
        sim_serial_s = 0.0
        for candidate, (misses, accesses, seconds) in zip(result.ranked, sim_rows):
            sim_ratios[candidate.text] = misses / accesses if accesses else 0.0
            sim_serial_s += seconds
        chosen_sim = sim_ratios[result.best.text]
        best_sim = min(sim_ratios.values())
        regret_pp = (chosen_sim - best_sim) * 100.0

        model_search_s = result.elapsed_s
        sim_search_s = result.generation_s + sim_serial_s
        assert result.best.cost is not None
        assert result.original.cost is not None
        assert result.compound.cost is not None
        rows.append(
            {
                "kernel": name,
                "n": n,
                "candidates": len(result.ranked),
                "evals": result.evaluated,
                "best": result.best.describe(),
                "source": result.best.source,
                "verified": result.verified,
                "miss_ratio_orig": result.original.cost.miss_ratio,
                "miss_ratio_model": result.best.cost.miss_ratio,
                "sim_ratio_chosen": chosen_sim,
                "sim_ratio_best": best_sim,
                "regret_pp": regret_pp,
                "beats_compound": (
                    result.best.cost.misses
                    <= result.compound.cost.misses + _EPS
                ),
                "model_search_s": model_search_s,
                "sim_search_s": sim_search_s,
                "speedup": sim_search_s / model_search_s
                if model_search_s
                else None,
            }
        )
    return rows


def run(quick: bool = False, jobs: int | None = None) -> dict:
    kernels = QUICK_KERNELS if quick else FULL_KERNELS
    rows = measure(kernels, jobs=jobs)
    return {
        "quick": quick,
        "line": LINE,
        "capacity": CAPACITY,
        "budget": BUDGET,
        "beam": BEAM,
        "regret_bound_pp": REGRET_BOUND_PP,
        "speedup_target": SPEEDUP_TARGET,
        "kernels": rows,
        "worst_regret_pp": max(r["regret_pp"] for r in rows),
        "min_speedup": min(r["speedup"] for r in rows if r["speedup"]),
        "all_beat_compound": all(r["beats_compound"] for r in rows),
    }


def write_json(payload: dict, path: str = DEFAULT_JSON_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# pytest entry points (quick-sized so `pytest benchmarks/` stays fast)
# ----------------------------------------------------------------------
def test_autotune_regret_within_two_points_quick():
    rows = measure(QUICK_KERNELS)
    offenders = [
        (r["kernel"], r["regret_pp"]) for r in rows if r["regret_pp"] > REGRET_BOUND_PP
    ]
    assert not offenders, offenders
    losers = [r["kernel"] for r in rows if not r["beats_compound"]]
    assert not losers, losers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, no speedup gate (regret + dominance gates only)",
    )
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--json", default=DEFAULT_JSON_PATH)
    parser.add_argument(
        "--no-ledger", action="store_true", help="skip the run-ledger append"
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    payload = run(quick=args.quick, jobs=args.jobs)
    payload["bench_s"] = time.perf_counter() - start
    write_json(payload, args.json)
    if not args.no_ledger:
        from bench_trace_engine import ledger_append

        ledger_append("autotune", list(argv or sys.argv[1:]), payload)

    for row in payload["kernels"]:
        print(
            f"{row['kernel']:>16s} n={row['n']:<4d} "
            f"cands={row['candidates']:<3d} best={row['best']:<24s} "
            f"sim={row['sim_ratio_chosen']:.4f} "
            f"regret={row['regret_pp']:5.2f}pp "
            f"model={row['model_search_s'] * 1e3:8.1f} ms "
            f"sim={row['sim_search_s']:7.2f} s "
            f"speedup={row['speedup']:8.0f}x"
        )
    print(f"artifact: {args.json}")
    ok = payload["worst_regret_pp"] <= REGRET_BOUND_PP
    print(
        f"regret: worst {payload['worst_regret_pp']:.2f}pp "
        f"(bound {REGRET_BOUND_PP}pp): {'PASS' if ok else 'FAIL'}"
    )
    dom = payload["all_beat_compound"]
    print(f"dominance: chosen <= compound on all kernels: {'PASS' if dom else 'FAIL'}")
    ok = ok and dom
    if not args.quick:
        fast = payload["min_speedup"] >= SPEEDUP_TARGET
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
