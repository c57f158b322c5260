"""Loop parallelism analysis.

The paper's §5.7 (Simple) discusses the tension its strategy resolves:
programs written so the *inner* loop is dependence-free (vectorizable)
often have terrible locality, and Compound deliberately moves the
recurrence inward when that wins on cache behaviour, "the improvements
in cache performance far outweigh the potential loss in low-level
parallelism."

This module provides the query both sides of that trade need: which
loops of a nest carry no dependence (are DOALL/vectorizable). A loop is
parallel when no legality-constraining dependence is carried at its
level within the nest.
"""

from __future__ import annotations

from repro.ir.nodes import Loop
from repro.ir.visit import enclosing_loops, innermost_loops
from repro.dependence.pairs import region_dependences

__all__ = ["parallel_loops", "carried_levels", "is_vectorizable"]


def carried_levels(nest_root: Loop) -> dict[str, bool]:
    """Map each loop var of the nest to whether it carries a dependence.

    A '*' component (unknown direction, e.g. scalar traffic) counts as
    carried — the conservative answer for parallelization.
    """
    chains = enclosing_loops(nest_root)
    carried: dict[str, bool] = {}

    def seed(loop: Loop) -> None:
        carried.setdefault(loop.var, False)
        for item in loop.body:
            if isinstance(item, Loop):
                seed(item)

    seed(nest_root)

    for dep in region_dependences(nest_root):
        if not dep.constrains_legality:
            continue
        level = dep.carried_level()
        if level is None:
            continue
        var = dep.loop_vars[level - 1]
        carried[var] = True
        # A leading '*' can hide deeper carried levels too; be safe.
        comp = dep.vector[level - 1]
        if not isinstance(comp, int) and comp == "*":
            for deeper in dep.loop_vars[level:]:
                carried[deeper] = True
    return carried


def parallel_loops(nest_root: Loop) -> list[str]:
    """Loop vars of the nest that carry no dependence (DOALL loops)."""
    return [var for var, is_carried in carried_levels(nest_root).items() if not is_carried]


def is_vectorizable(nest_root: Loop) -> bool:
    """Is some innermost loop of the nest dependence-free?

    This is the property vector-style code maximizes — often at the cost
    of locality, which is exactly the trade §5.7 describes for Simple.
    """
    carried = carried_levels(nest_root)
    return any(not carried[loop.var] for loop in innermost_loops(nest_root))
