"""Figure 7: Cholesky factorization — model ranking vs simulated time.

The paper generates all loop organizations of Cholesky (with the minimal
distribution each requires), predicts their order with the cost model,
and shows Compound attains the best-performing structure. We simulate
all six classic forms and check the model's ranking and Compound's pick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec import Machine, simulate
from repro.model import CostModel
from repro.suite.kernels import CHOLESKY_FORMS, cholesky
from repro.stats.report import render_table
from repro.transforms import compound
from repro.experiments.common import MACHINE2

__all__ = ["Figure7Result", "run", "render"]


@dataclass
class Figure7Result:
    n: int
    model_ranking: tuple[str, ...]  # from the KIJ nest's LoopCost
    cycles: dict[str, int]  # per form
    compound_cycles: int  # Compound applied to the KIJ original

    @property
    def simulated_ranking(self) -> tuple[str, ...]:
        return tuple(sorted(self.cycles, key=self.cycles.get))

    @property
    def compound_matches_best(self) -> bool:
        """Compound's output is within 5% of the best simulated form."""
        best = min(self.cycles.values())
        return self.compound_cycles <= best * 1.05


def run(n: int = 96, machine: Machine | None = None) -> Figure7Result:
    machine = machine or MACHINE2
    model = CostModel(cls=4)
    ranking = tuple(
        "".join(order)
        for order in model.rank_permutations(cholesky(16, "KIJ").top_loops[0])
    )
    cycles = {
        form: simulate(cholesky(n, form), machine).cycles
        for form in CHOLESKY_FORMS
    }
    transformed = compound(cholesky(n, "KIJ"), CostModel(cls=4)).program
    compound_cycles = simulate(transformed, machine).cycles
    return Figure7Result(n, ranking, cycles, compound_cycles)


def render(result: Figure7Result) -> str:
    rows = [
        {
            "Form": form,
            "Cycles": result.cycles[form],
            "vs best": round(result.cycles[form] / min(result.cycles.values()), 2),
        }
        for form in result.simulated_ranking
    ]
    rows.append(
        {
            "Form": "Compound(KIJ)",
            "Cycles": result.compound_cycles,
            "vs best": round(
                result.compound_cycles / min(result.cycles.values()), 2
            ),
        }
    )
    return (
        f"Figure 7: Cholesky (N={result.n}), model ranking: "
        f"{' '.join(result.model_ranking)}\n" + render_table(rows)
    )
