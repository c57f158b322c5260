"""Table 4: simulated cache hit rates (cold misses excluded).

For every suite program, the original and final versions are simulated
against cache1 (RS/6000-style: 64KB/4-way/128B) and cache2 (i860-style:
8KB/2-way/32B). Hit rates are reported both for the whole program and
for the "optimized procedures" — statements whose loop structure the
compiler changed — mirroring the paper's two column groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import CACHE1, CACHE2, CacheConfig
from repro.model import CostModel
from repro.stats.report import render_table
from repro.suite import get_entry, get_set
from repro.transforms import compound
from repro.experiments.common import changed_sids, dual_hit_rates, run_sharded
from repro.experiments.table3_perf import problem_size

__all__ = ["HitRateRow", "Table4Result", "run", "render"]


@dataclass
class HitRateRow:
    name: str
    # (config, version) -> rate, for 'whole' and 'opt' scopes
    whole: dict[tuple[str, str], float]
    opt: dict[tuple[str, str], float]
    optimized_statements: int

    def whole_delta(self, config: str) -> float:
        return self.whole[(config, "final")] - self.whole[(config, "orig")]

    def opt_delta(self, config: str) -> float:
        return self.opt[(config, "final")] - self.opt[(config, "orig")]


@dataclass
class Table4Result:
    rows: list[HitRateRow]

    def row(self, name: str) -> HitRateRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def improved_whole(self, config: str) -> list[str]:
        return [r.name for r in self.rows if r.whole_delta(config) > 0.001]


def _entry_row(
    name: str,
    scale: float,
    cls: int,
    config_items: tuple[tuple[str, CacheConfig], ...],
) -> HitRateRow:
    """One suite program's row; module-level so shards can pickle it.

    Takes the entry *name* (``SuiteEntry`` builders are lambdas and do
    not pickle) and resolves it inside the worker.
    """
    entry = get_entry(name)
    n = problem_size(name, scale)
    program = entry.program(n)
    final = compound(program, CostModel(cls=cls)).program
    focus = changed_sids(program, final)
    whole: dict[tuple[str, str], float] = {}
    opt: dict[tuple[str, str], float] = {}
    for config_name, config in config_items:
        for version_name, version in (("orig", program), ("final", final)):
            whole_rate, opt_rate = dual_hit_rates(
                version, config, focus, init=entry.init
            )
            whole[(config_name, version_name)] = whole_rate
            opt[(config_name, version_name)] = opt_rate
    return HitRateRow(name, whole, opt, len(focus))


def run(
    scale: float = 1.0,
    cls: int = 4,
    configs: dict[str, CacheConfig] | None = None,
    names: tuple[str, ...] | None = None,
    jobs: int | None = None,
) -> Table4Result:
    configs = configs or {"cache1": CACHE1, "cache2": CACHE2}
    config_items = tuple(configs.items())
    selected = [
        entry.name
        for entry in get_set("paper").entries()
        if not names or entry.name in names
    ]
    rows = run_sharded(
        _entry_row,
        [(name, scale, cls, config_items) for name in selected],
        jobs,
    )
    return Table4Result(rows)


def render(result: Table4Result) -> str:
    configs = sorted({c for row in result.rows for c, _ in row.whole})
    rows = []
    for row in result.rows:
        cells = {"Program": row.name, "OptStmts": row.optimized_statements}
        for config in configs:
            cells[f"{config} opt O"] = round(100 * row.opt[(config, "orig")], 1)
            cells[f"{config} opt F"] = round(100 * row.opt[(config, "final")], 1)
            cells[f"{config} whole O"] = round(100 * row.whole[(config, "orig")], 2)
            cells[f"{config} whole F"] = round(100 * row.whole[(config, "final")], 2)
        rows.append(cells)
    return (
        "Table 4: simulated cache hit rates, %, cold misses excluded\n"
        "(opt = optimized statements only; O = original, F = final)\n"
        + render_table(rows)
    )
