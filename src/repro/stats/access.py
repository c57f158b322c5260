"""Data access properties (Table 5).

For a program version, classify every reference group of every nest with
respect to the nest's innermost loop:

* locality kind of the group's representative — loop-invariant (Inv),
  unit-stride (Unit), or none (None);
* whether the group was built (partly) from group-spatial reuse;
* references per group by kind (group-temporal reuse indicator);
* LoopCost improvement ratios (plain and nesting-depth-weighted).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import Program
from repro.ir.visit import innermost_loops
from repro.model.loopcost import CONSECUTIVE, INVARIANT, CostModel

__all__ = ["AccessProperties", "collect_access_properties", "cost_ratios"]


@dataclass(frozen=True)
class AccessProperties:
    """One Table-5 panel (for one program version)."""

    name: str
    groups_invariant: int
    groups_unit: int
    groups_none: int
    groups_spatial: int
    refs_invariant: int
    refs_unit: int
    refs_none: int

    @property
    def total_groups(self) -> int:
        return self.groups_invariant + self.groups_unit + self.groups_none

    def _pct(self, value: int) -> int:
        return round(100 * value / self.total_groups) if self.total_groups else 0

    @property
    def row(self) -> dict:
        refs_per = lambda refs, groups: round(refs / groups, 2) if groups else 0.0
        total_refs = self.refs_invariant + self.refs_unit + self.refs_none
        return {
            "Version": self.name,
            "Inv%": self._pct(self.groups_invariant),
            "Unit%": self._pct(self.groups_unit),
            "None%": self._pct(self.groups_none),
            "Group%": self._pct(self.groups_spatial),
            "Refs/Inv": refs_per(self.refs_invariant, self.groups_invariant),
            "Refs/Unit": refs_per(self.refs_unit, self.groups_unit),
            "Refs/None": refs_per(self.refs_none, self.groups_none),
            "Refs/Avg": refs_per(total_refs, self.total_groups),
        }


def collect_access_properties(
    program: Program, model: CostModel | None = None, name: str = ""
) -> AccessProperties:
    """Classify the reference groups of every nest at its inner loop."""
    model = model or CostModel()
    counts = {INVARIANT: 0, CONSECUTIVE: 0, "none": 0}
    refs = {INVARIANT: 0, CONSECUTIVE: 0, "none": 0}
    spatial = 0

    for nest in program.top_loops:
        info = model.nest_info(nest)
        for inner in innermost_loops(nest):
            groups = model.groups(nest, inner.var)
            for group in groups:
                rep = group.representative
                if inner not in info.chains[rep.sid]:
                    continue  # group lives outside this inner loop
                kind = model.ref_cost_kind(rep.ref, inner)
                key = kind if kind in (INVARIANT, CONSECUTIVE) else "none"
                counts[key] += 1
                refs[key] += group.size
                if group.has_group_spatial:
                    spatial += 1

    return AccessProperties(
        name=name or program.name,
        groups_invariant=counts[INVARIANT],
        groups_unit=counts[CONSECUTIVE],
        groups_none=counts["none"],
        groups_spatial=spatial,
        refs_invariant=refs[INVARIANT],
        refs_unit=refs[CONSECUTIVE],
        refs_none=refs["none"],
    )


def cost_ratios(
    original: Program, other: Program, model: CostModel
) -> tuple[float, float]:
    """(plain, depth-weighted) LoopCost improvement ratios original/other.

    When the two versions have the same nest count, ratios are averaged
    per nest (the paper's convention), weighting by nesting depth for the
    "Wt" column. Distribution changes the nest count; then the whole-
    program ratio is used for both.
    """
    from repro.stats.memorder import _organization_cost

    env = original.param_env
    orig_nests = original.top_loops
    new_nests = other.top_loops
    if len(orig_nests) == len(new_nests):
        plain: list[float] = []
        weighted_num = 0.0
        weighted_den = 0.0
        for orig_nest, new_nest in zip(orig_nests, new_nests):
            orig_cost = _organization_cost(orig_nest, model, env)
            new_cost = _organization_cost(new_nest, model, env)
            if orig_cost <= 0 or new_cost <= 0:
                continue
            ratio = orig_cost / new_cost
            plain.append(ratio)
            depth = orig_nest.depth
            weighted_num += ratio * depth
            weighted_den += depth
        if plain:
            return (
                sum(plain) / len(plain),
                weighted_num / weighted_den if weighted_den else 1.0,
            )
    total_orig = sum(_organization_cost(nest, model, env) for nest in orig_nests)
    total_new = sum(_organization_cost(nest, model, env) for nest in new_nests)
    ratio = total_orig / total_new if total_new > 0 else 1.0
    return ratio, ratio
