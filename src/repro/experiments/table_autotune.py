"""Table-autotune: model-driven search vs brute-force simulation.

For each gate kernel the autotuner (:mod:`repro.autotune`) searches the
permutation x tiling x fusion space scoring every candidate with the
*analytic* oracle only; the trace-driven cache simulator then scores the
complete candidate pool as ground truth. The table reports the chosen
configuration and its **regret** — the simulated miss ratio of the
model's choice minus the best simulated miss ratio in the pool, in
percentage points. Zero regret means trusting the analytic model found
the same winner the exhaustive simulation would have, at a small
fraction of the cost (the timed comparison lives in
``benchmarks/bench_autotune.py``; this table is deterministic and
timing-free so it can be snapshotted as a golden file).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.report import render_table
from repro.suite import get_entry
from repro.experiments.common import run_sharded

__all__ = [
    "SIZES_QUICK",
    "SIZES_FULL",
    "AutotuneRow",
    "TableAutotuneResult",
    "run",
    "render",
]

#: Gate kernels at sizes whose arrays clearly exceed the 8 KB search
#: cache (right at the capacity boundary the analytic threshold model
#: can land on the wrong side; see benchmarks/bench_autotune.py).
SIZES_QUICK: tuple[tuple[str, int], ...] = (
    ("jacobi", 65),
    ("adi", 25),
    ("erlebacher_like", 9),
    ("cholesky", 17),
    ("transpose", 49),
)

SIZES_FULL: tuple[tuple[str, int], ...] = (
    ("jacobi", 257),
    ("adi", 241),
    ("erlebacher_like", 33),
    ("cholesky", 129),
    ("transpose", 385),
)

#: Search geometry: the 8 KB / 32 B-line fa2 config the analytic
#: predictor is accuracy-gated at (see benchmarks/bench_autotune.py).
LINE = 32
CAPACITY = 256

_EPS = 1e-9


@dataclass
class AutotuneRow:
    name: str
    n: int
    candidates: int
    evals: int
    best: str  # Candidate.describe() of the chosen config
    source: str  # "original" | "compound" | "search"
    verified: bool
    pred_orig: float  # predicted miss ratio of the original
    pred_best: float  # predicted miss ratio of the chosen config
    sim_chosen: float  # simulated miss ratio of the chosen config
    sim_best: float  # best simulated miss ratio over the whole pool
    beats_compound: bool

    @property
    def regret_pp(self) -> float:
        return (self.sim_chosen - self.sim_best) * 100.0


@dataclass
class TableAutotuneResult:
    rows: list[AutotuneRow]

    def row(self, name: str) -> AutotuneRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def worst_regret_pp(self) -> float:
        return max((row.regret_pp for row in self.rows), default=0.0)


def _kernel_row(name: str, n: int, budget: int, beam: int) -> AutotuneRow:
    """One kernel's search + exhaustive sim; module-level so shards pickle."""
    from repro.autotune import autotune
    from repro.autotune.search import _sim_eval

    program = get_entry(name).program(n)
    result = autotune(
        program, line=LINE, capacity=CAPACITY, budget=budget, beam=beam, topk=0
    )
    sim_ratios: dict[str, float] = {}
    for candidate in result.ranked:
        misses, accesses, _ = _sim_eval(candidate.program, LINE, CAPACITY, LINE // 8)
        sim_ratios[candidate.text] = misses / accesses if accesses else 0.0
    assert result.best.cost is not None
    assert result.original.cost is not None
    assert result.compound.cost is not None
    return AutotuneRow(
        name=name,
        n=n,
        candidates=len(result.ranked),
        evals=result.evaluated,
        best=result.best.describe(),
        source=result.best.source,
        verified=result.verified,
        pred_orig=result.original.cost.miss_ratio,
        pred_best=result.best.cost.miss_ratio,
        sim_chosen=sim_ratios[result.best.text],
        sim_best=min(sim_ratios.values()),
        beats_compound=(
            result.best.cost.misses <= result.compound.cost.misses + _EPS
        ),
    )


def run(
    sizes: tuple[tuple[str, int], ...] | None = None,
    budget: int = 24,
    beam: int = 2,
    jobs: int | None = None,
) -> TableAutotuneResult:
    sizes = sizes if sizes is not None else SIZES_QUICK
    rows = run_sharded(
        _kernel_row, [(name, n, budget, beam) for name, n in sizes], jobs
    )
    return TableAutotuneResult(list(rows))


def render(result: TableAutotuneResult) -> str:
    rows = []
    for row in result.rows:
        rows.append(
            {
                "Program": row.name,
                "N": row.n,
                "Cands": row.candidates,
                "Best config": row.best,
                "Src": row.source,
                "Pred orig": round(100 * row.pred_orig, 2),
                "Pred best": round(100 * row.pred_best, 2),
                "Sim chosen": round(100 * row.sim_chosen, 2),
                "Sim best": round(100 * row.sim_best, 2),
                "Regret pp": round(row.regret_pp, 2),
                ">=Compound": "yes" if row.beats_compound else "NO",
            }
        )
    return (
        "Table-autotune: model-driven search vs exhaustive simulation, "
        "miss ratios in %\n"
        f"(8KB FA cache, 32B lines; worst regret "
        f"{result.worst_regret_pp():.2f}pp)\n" + render_table(rows)
    )
