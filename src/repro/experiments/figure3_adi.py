"""Figure 3: ADI integration — fusion's effect on LoopCost.

Reproduces the figure's cost table (cls=4): with the two K loops fused,
LoopCost(K) drops from 5n^2 to 3n^2, and the enabled interchange brings
the inner cost down to 3/4 n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.poly import Poly
from repro.model import CostModel
from repro.suite.kernels import adi
from repro.stats.report import render_table

__all__ = ["Figure3Result", "run", "render"]


@dataclass
class Figure3Result:
    unfused_total_k: Poly  # sum of the two distributed nests at K
    fused_cost_k: Poly
    fused_cost_i: Poly

    @property
    def fusion_profitable(self) -> bool:
        return self.fused_cost_k.magnitude() < self.unfused_total_k.magnitude()

    @property
    def interchange_profitable(self) -> bool:
        return self.fused_cost_i.magnitude() < self.fused_cost_k.magnitude()


def run(cls: int = 4) -> Figure3Result:
    model = CostModel(cls=cls)

    distributed = adi(100, "distributed").top_loops[0]
    outer_trip = Poly.var("N") - 1  # DO I = 2, N
    unfused = Poly.constant(0)
    for inner in distributed.inner_loops:
        # Inner-nest cost times the shared outer loop's trip count, the
        # paper's "compute LoopCost independently for each candidate".
        unfused = unfused + model.loop_cost(
            inner, inner.var, outer=(distributed,)
        ) * outer_trip

    fused = adi(100, "fused").top_loops[0]
    costs = model.loop_costs(fused)
    inner_k = fused.inner_loops[0].var
    return Figure3Result(
        unfused_total_k=unfused,
        fused_cost_k=costs[inner_k],
        fused_cost_i=costs[fused.var],
    )


def render(result: Figure3Result) -> str:
    rows = [
        {"Version": "distributed (two K nests)", "LoopCost": str(result.unfused_total_k)},
        {"Version": "fused, K inner", "LoopCost": str(result.fused_cost_k)},
        {"Version": "fused, I inner (interchanged)", "LoopCost": str(result.fused_cost_i)},
    ]
    notes = (
        f"fusion profitable: {result.fusion_profitable}; "
        f"interchange profitable: {result.interchange_profitable}"
    )
    return (
        "Figure 3: ADI integration LoopCost (cls=4; paper: 5n^2 -> 3n^2 -> 3/4 n^2)\n"
        + render_table(rows)
        + "\n"
        + notes
    )
