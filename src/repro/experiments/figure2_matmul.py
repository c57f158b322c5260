"""Figure 2: matrix multiply — cost model ranking vs simulated time.

The paper executes all six loop orders of matrix multiply on three
machines at two sizes, showing that the model's ranking (JKI best ...
IKJ worst) exactly predicts relative performance, with larger matrices
amplifying the gap. We reproduce the experiment with the cycle-level
simulator at scaled-down sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import line_elements
from repro.exec import simulate
from repro.model import CostModel
from repro.suite.kernels import MATMUL_ORDERS, matmul
from repro.stats.report import render_table
from repro.experiments.common import MACHINE1, MACHINE2, SPARC_MACHINE

__all__ = ["Figure2Result", "run", "render"]

_MACHINES = {
    "rs6000": MACHINE1,
    "i860": MACHINE2,
    "sparc2": SPARC_MACHINE,
}


@dataclass
class Figure2Result:
    sizes: tuple[int, ...]
    model_ranking: tuple[str, ...]
    cycles: dict[tuple[str, int, str], int]  # (machine, size, order) -> cycles
    simulated_rankings: dict[tuple[str, int], tuple[str, ...]]

    def spread(self, machine: str, size: int) -> float:
        """worst/best cycle ratio — the paper's 'factors of up to ...'."""
        values = [
            self.cycles[(machine, size, order)] for order in MATMUL_ORDERS
        ]
        return max(values) / min(values)


def run(
    sizes: tuple[int, ...] = (24, 48),
    machines: dict | None = None,
) -> Figure2Result:
    machines = machines or _MACHINES
    model = CostModel(cls=4)
    ranking = tuple(
        "".join(order) for order in model.rank_permutations(matmul(8, "IJK").top_loops[0])
    )

    cycles: dict[tuple[str, int, str], int] = {}
    rankings: dict[tuple[str, int], tuple[str, ...]] = {}
    for machine_name, machine in machines.items():
        for size in sizes:
            for order in MATMUL_ORDERS:
                perf = simulate(matmul(size, order), machine)
                cycles[(machine_name, size, order)] = perf.cycles
            rankings[(machine_name, size)] = tuple(
                sorted(
                    MATMUL_ORDERS,
                    key=lambda o: cycles[(machine_name, size, o)],
                )
            )
    return Figure2Result(tuple(sizes), ranking, cycles, rankings)


def render(result: Figure2Result) -> str:
    rows = []
    for (machine, size), ranking in sorted(result.simulated_rankings.items()):
        row = {"Machine": machine, "N": size}
        for order in MATMUL_ORDERS:
            row[order] = result.cycles[(machine, size, order)]
        row["Best"] = ranking[0]
        row["Spread"] = round(result.spread(machine, size), 2)
        rows.append(row)
    header = (
        "Figure 2: matrix multiply, simulated cycles per loop order\n"
        f"Model ranking (best to worst): {' '.join(result.model_ranking)}"
    )
    return header + "\n" + render_table(rows)
