"""Table 1: Erlebacher — hand-coded vs distributed vs fused.

The paper measures three versions on three machines: the hand-coded
original (single-statement loops, memory order), the memory-order
distributed version, and the fused version. Fusion wins by up to 17%.

Our 'hand' version is already in memory order; 'distributed' is the
vector-style version permuted into memory order nest-by-nest (no
fusion); 'fused' is the full Compound output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec import simulate
from repro.ir.nodes import Loop
from repro.model import CostModel
from repro.suite.kernels import erlebacher
from repro.stats.report import render_table
from repro.transforms import compound, permute_nest
from repro.experiments.common import MACHINE1, MACHINE2, SPARC_MACHINE

__all__ = ["Table1Result", "run", "render"]

_MACHINES = {"sparc2": SPARC_MACHINE, "i860": MACHINE2, "rs6000": MACHINE1}


@dataclass
class Table1Result:
    n: int
    cycles: dict[tuple[str, str], int]  # (machine, version) -> cycles

    def fusion_speedup(self, machine: str) -> float:
        return self.cycles[(machine, "hand")] / self.cycles[(machine, "fused")]

    @property
    def fused_always_best(self) -> bool:
        machines = {m for m, _ in self.cycles}
        return all(
            self.cycles[(m, "fused")]
            <= min(self.cycles[(m, "hand")], self.cycles[(m, "distributed")])
            for m in machines
        )


def _distributed_memory_order(n: int):
    """The vector-style program with each nest permuted to memory order."""
    program = erlebacher(n, "distributed")
    model = CostModel(cls=4)
    body = []
    for item in program.body:
        if isinstance(item, Loop):
            body.append(permute_nest(item, model).loop)
        else:
            body.append(item)
    return program.with_body(body)


def run(n: int = 24, machines: dict | None = None) -> Table1Result:
    machines = machines or _MACHINES
    versions = {
        "hand": erlebacher(n, "hand"),
        "distributed": _distributed_memory_order(n),
        "fused": compound(erlebacher(n, "distributed"), CostModel(cls=4)).program,
    }
    cycles = {}
    for machine_name, machine in machines.items():
        for version_name, program in versions.items():
            cycles[(machine_name, version_name)] = simulate(program, machine).cycles
    return Table1Result(n, cycles)


def render(result: Table1Result) -> str:
    machines = sorted({m for m, _ in result.cycles})
    rows = []
    for machine in machines:
        rows.append(
            {
                "Machine": machine,
                "Hand": result.cycles[(machine, "hand")],
                "Distributed": result.cycles[(machine, "distributed")],
                "Fused": result.cycles[(machine, "fused")],
                "Fusion speedup": round(result.fusion_speedup(machine), 3),
            }
        )
    return (
        f"Table 1: Erlebacher (N={result.n}), simulated cycles\n"
        + render_table(rows)
    )
