"""Table 4-analytic: predicted vs simulated hit rates, no trace needed.

Companion to :mod:`repro.experiments.table4_hitrates`: for every suite
program (original and compound-transformed), the analytic locality
predictor (:mod:`repro.locality.analytic`) derives fully-associative
LRU hit rates straight from the subscripts, and the exact trace-driven
reuse-distance profile provides the ground truth. Two FA geometries
bracket the paper's machines:

* ``fa1`` — 64 KB, 128 B lines (512 lines), the RS/6000 capacity;
* ``fa2`` — 8 KB, 32 B lines (256 lines), the i860 capacity.

The point of the table is the error column: the predictor replaces an
O(accesses) simulation with an O(nest) computation, and stays within a
couple of percentage points on the whole suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.reuse import reuse_profile
from repro.locality import predict_locality
from repro.model import CostModel
from repro.stats.report import render_table
from repro.suite import get_entry, get_set
from repro.transforms import compound
from repro.experiments.common import run_sharded
from repro.experiments.table3_perf import problem_size

__all__ = ["FA_CONFIGS", "AnalyticRow", "Table4AnalyticResult", "run", "render"]

#: Fully-associative geometries: name -> (line bytes, capacity in lines).
FA_CONFIGS: dict[str, tuple[int, int]] = {
    "fa1": (128, 512),  # 64 KB, RS/6000-sized
    "fa2": (32, 256),  # 8 KB, i860-sized
}


@dataclass
class AnalyticRow:
    name: str
    version: str  # "orig" | "final"
    accesses: int
    # config -> hit rate (cold excluded), and the analytic prediction
    simulated: dict[str, float]
    predicted: dict[str, float]
    exact_path: bool

    def error(self, config: str) -> float:
        return abs(self.predicted[config] - self.simulated[config])


@dataclass
class Table4AnalyticResult:
    rows: list[AnalyticRow]

    def row(self, name: str, version: str = "orig") -> AnalyticRow:
        for row in self.rows:
            if row.name == name and row.version == version:
                return row
        raise KeyError((name, version))

    def worst_error(self) -> float:
        return max(
            (row.error(config) for row in self.rows for config in row.simulated),
            default=0.0,
        )


def _entry_rows(
    name: str,
    scale: float,
    cls: int,
    config_items: tuple[tuple[str, tuple[int, int]], ...],
) -> list[AnalyticRow]:
    """Both versions of one suite program; module-level so shards pickle."""
    entry = get_entry(name)
    n = problem_size(name, scale)
    program = entry.program(n)
    final = compound(program, CostModel(cls=cls)).program
    rows = []
    for version_name, version in (("orig", program), ("final", final)):
        simulated: dict[str, float] = {}
        predicted: dict[str, float] = {}
        accesses = 0
        exact_path = False
        for config_name, (line, lines) in config_items:
            trace = reuse_profile(version, line=line)
            prediction = predict_locality(version, line=line)
            simulated[config_name] = trace.hit_rate_for_capacity(lines)
            predicted[config_name] = prediction.hit_rate_for_capacity(lines)
            accesses = trace.accesses
            exact_path = prediction.exact
        rows.append(
            AnalyticRow(name, version_name, accesses, simulated, predicted, exact_path)
        )
    return rows


def run(
    scale: float = 1.0,
    cls: int = 4,
    configs: dict[str, tuple[int, int]] | None = None,
    names: tuple[str, ...] | None = None,
    jobs: int | None = None,
) -> Table4AnalyticResult:
    configs = configs or FA_CONFIGS
    config_items = tuple(configs.items())
    selected = [
        entry.name
        for entry in get_set("paper").entries()
        if not names or entry.name in names
    ]
    sharded = run_sharded(
        _entry_rows,
        [(name, scale, cls, config_items) for name in selected],
        jobs,
    )
    return Table4AnalyticResult([row for rows in sharded for row in rows])


def render(result: Table4AnalyticResult) -> str:
    configs = sorted({c for row in result.rows for c in row.simulated})
    rows = []
    for row in result.rows:
        cells: dict = {"Program": row.name, "Ver": row.version}
        for config in configs:
            cells[f"{config} sim"] = round(100 * row.simulated[config], 2)
            cells[f"{config} pred"] = round(100 * row.predicted[config], 2)
            cells[f"{config} err"] = round(100 * row.error(config), 2)
        rows.append(cells)
    return (
        "Table 4-analytic: predicted vs simulated FA-LRU hit rates, %, "
        "cold misses excluded\n"
        f"(fa1 = 64KB/128B, fa2 = 8KB/32B; worst error "
        f"{100 * result.worst_error():.2f}pp)\n" + render_table(rows)
    )
