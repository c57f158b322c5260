"""Memory-order statistics (Table 2) for a program before/after Compound.

For each program we report, matching the paper's columns:

* lines (pretty-printed), loop count, nest count (depth >= 2);
* % of nests originally in / permuted into / failing memory order;
* the same for the innermost loop position;
* fusion candidates (C) and nests actually fused (A);
* nests distributed (D) and nests that resulted (R);
* LoopCost ratios original/final and original/ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import Loop, Program
from repro.ir.visit import innermost_loops, iter_loops
from repro.model.loopcost import CostModel
from repro.transforms.compound import FAIL, ORIG, PERM, CompoundOutcome, compound

__all__ = ["ProgramStats", "collect_program_stats", "ideal_cost", "program_cost"]


@dataclass(frozen=True)
class ProgramStats:
    """One row of Table 2."""

    name: str
    lines: int
    loops: int
    nests: int
    memory_order_orig: int
    memory_order_perm: int
    memory_order_fail: int
    inner_orig: int
    inner_perm: int
    inner_fail: int
    fusion_candidates: int
    nests_fused: int
    distribution_applied: int
    distribution_resulting: int
    cost_ratio_final: float
    cost_ratio_ideal: float

    def pct(self, value: int) -> int:
        if self.nests == 0:
            return 0
        return round(100 * value / self.nests)

    @property
    def row(self) -> dict:
        return {
            "Program": self.name,
            "Lines": self.lines,
            "Loops": self.loops,
            "Nests": self.nests,
            "MO-Orig%": self.pct(self.memory_order_orig),
            "MO-Perm%": self.pct(self.memory_order_perm),
            "MO-Fail%": self.pct(self.memory_order_fail),
            "IL-Orig%": self.pct(self.inner_orig),
            "IL-Perm%": self.pct(self.inner_perm),
            "IL-Fail%": self.pct(self.inner_fail),
            "Fus-C": self.fusion_candidates,
            "Fus-A": self.nests_fused,
            "Dist-D": self.distribution_applied,
            "Dist-R": self.distribution_resulting,
            "Ratio-Final": round(self.cost_ratio_final, 2),
            "Ratio-Ideal": round(self.cost_ratio_ideal, 2),
        }


def program_cost(program: Program, model: CostModel) -> float:
    """LoopCost of the program as currently organized.

    Per nest, per reference group (computed with respect to the group's
    innermost enclosing loop): ``RefCost(rep, inner) * prod(trips of the
    rep's other enclosing loops)``. This values each statement at its own
    innermost loop, so imperfect and distributed nests are costed
    consistently. Costs are evaluated at the program's concrete parameter
    values (falling back to the dominant magnitude for unbound symbols).
    """
    return _cost(program, model, ideal=False)


def ideal_cost(program: Program, model: CostModel) -> float:
    """LoopCost of the *ideal* program (paper §5.2): each reference group
    gets the cheapest loop of its enclosing chain innermost, regardless of
    dependence constraints or implementation limits."""
    return _cost(program, model, ideal=True)


def _cost(program: Program, model: CostModel, ideal: bool) -> float:
    env = program.param_env
    total = 0.0
    for nest in program.top_loops:
        current = _organization_cost(nest, model, env)
        if not ideal:
            total += current
            continue
        # Ideal (paper §5.2): the nest reaches memory order regardless of
        # dependences — one loop choice per nest, every group it encloses
        # charged with that loop innermost (grouping recomputed w.r.t.
        # the candidate); groups outside the candidate keep their current
        # innermost loop.
        info = model.nest_info(nest)
        best = current
        for loop in info.loops:
            candidate_total = 0.0
            for group in model.groups(nest, loop.var):
                rep = group.representative
                chain = info.chains[rep.sid]
                if not chain:
                    continue
                target = loop if loop in chain else chain[-1]
                candidate_total += _group_cost(
                    model, info, rep, target, chain, env
                )
            best = min(best, candidate_total)
        total += best
    return total


def _organization_cost(
    nest: Loop, model: CostModel, env: dict | None = None
) -> float:
    """Cost of the nest as written: each group at its own innermost loop."""
    info = model.nest_info(nest)
    total = 0.0
    for inner in innermost_loops(nest):
        for group in model.groups(nest, inner.var):
            rep = group.representative
            chain = info.chains[rep.sid]
            if not chain or chain[-1] is not inner:
                continue
            total += _group_cost(model, info, rep, inner, chain, env)
    return total


def _group_cost(model, info, rep, inner_loop, chain, env=None) -> float:
    from repro.errors import ReproError

    cost = model.ref_cost(info, rep.ref, inner_loop)
    for enclosing in chain:
        if enclosing is not inner_loop:
            cost = cost * info.trips[enclosing.var]
    if env:
        try:
            return float(cost.evaluate(env))
        except ReproError:
            pass
    return cost.magnitude()


def collect_program_stats(
    program: Program, model: CostModel | None = None
) -> tuple[ProgramStats, CompoundOutcome]:
    """Run Compound on ``program`` and assemble its Table-2 row."""
    model = model or CostModel()
    outcome = compound(program, model)

    counts = outcome.counts
    inner = outcome.inner_counts
    lines = len(str(program).splitlines())
    loops = sum(1 for _ in iter_loops(program))
    nests = len(outcome.nests)

    fresh = CostModel(cls=model.cls, temporal_max=model.temporal_max)
    original_cost = program_cost(program, fresh)
    final_cost = program_cost(outcome.program, fresh)
    # The ideal bound is about loop *order* only; fusion can beat it by
    # creating group reuse, so the final organization is folded in.
    ideal = min(ideal_cost(program, fresh), final_cost)

    stats = ProgramStats(
        name=program.name,
        lines=lines,
        loops=loops,
        nests=nests,
        memory_order_orig=counts[ORIG],
        memory_order_perm=counts[PERM],
        memory_order_fail=counts[FAIL],
        inner_orig=inner[ORIG],
        inner_perm=inner[PERM],
        inner_fail=inner[FAIL],
        fusion_candidates=outcome.fusion_candidates,
        nests_fused=outcome.nests_fused,
        distribution_applied=outcome.distribution_applied,
        distribution_resulting=outcome.distribution_resulting,
        cost_ratio_final=(original_cost / final_cost) if final_cost else 1.0,
        cost_ratio_ideal=(original_cost / ideal) if ideal else 1.0,
    )
    return stats, outcome
