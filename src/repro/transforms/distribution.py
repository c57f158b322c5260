"""Loop distribution (paper §4.4, Figure 5).

``Distribute`` splits the body of a loop at level ``j`` into the finest
partitions that keep every recurrence (dependence-graph SCC) intact,
then checks whether some resulting nest can be permuted into (or toward)
memory order. It performs the *smallest* amount of distribution that
enables permutation: levels are tried from ``m-1`` (deepest non-inner
level) outward, stopping at the first success.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.graph import strongly_connected_components
from repro.dependence.pairs import region_dependences
from repro.ir.nodes import Assign, Loop
from repro.ir.visit import (
    Path,
    fresh_name,
    iter_loops,
    loops_above,
    node_at,
    rename_loops,
    replace_at,
)
from repro.model.loopcost import CostModel
from repro.obs import get_obs
from repro.transforms.permute import PermuteResult, apply_order, permute_nest

__all__ = [
    "DistributeOutcome",
    "distribute_nest",
    "finest_partitions",
    "replay_distribution",
]


@dataclass(frozen=True)
class DistributeOutcome:
    """A successful distribution.

    ``nodes`` replace the original nest in its parent body (more than one
    node when the outermost level was distributed). ``new_nests`` is the
    number of loop nests that resulted from the split (Table 2's R), and
    ``permutations`` the per-partition permutation results.

    The rest is the split in size-independent terms, enough for
    :func:`replay_distribution` to repeat it on a resized copy of the
    nest: ``target_path`` (body indices from the nest root down to the
    distributed loop), ``partitions`` (indices into that loop's body),
    ``names`` (loop variable of each copy) and ``orders`` (each copy's
    applied ``(order, reversed_loops)``, or None when it was kept).
    """

    nodes: tuple["Loop | Assign", ...]
    level: int
    new_nests: int
    permutations: tuple[PermuteResult, ...]
    target_path: tuple[int, ...] = ()
    partitions: tuple[tuple[int, ...], ...] = ()
    names: tuple[str, ...] = ()
    orders: tuple[tuple[tuple[str, ...], tuple[str, ...]] | None, ...] = ()


def finest_partitions(
    nest_root: Loop, target: Loop, level: int
) -> list[tuple["Loop | Assign", ...]]:
    """Partition ``target.body`` (target at 1-based ``level`` in the nest).

    Builds the statement dependence graph restricted to dependences
    carried at ``level`` or deeper (plus loop-independent ones), lifts it
    to body-item granularity, and returns the item SCCs in topological
    order. Statements in a recurrence stay in one partition.
    """
    deps = [
        d
        for d in region_dependences(nest_root)
        if d.constrains_legality
    ]
    body_sids = {s.sid for s in target.statements}
    deps = [
        d for d in deps if d.source.sid in body_sids and d.sink.sid in body_sids
    ]
    item_of: dict[int, int] = {}
    for idx, item in enumerate(target.body):
        if isinstance(item, Assign):
            item_of[item.sid] = idx
        else:
            for stmt in item.statements:
                item_of[stmt.sid] = idx

    adjacency: dict[int, list[int]] = {i: [] for i in range(len(target.body))}
    for dep in deps:
        carried = dep.carried_level()
        if carried is not None and carried < level:
            continue  # preserved by the intact outer loops
        a, b = item_of[dep.source.sid], item_of[dep.sink.sid]
        if a != b:
            adjacency[a].append(b)
        elif carried is not None:
            adjacency[a].append(a)  # self recurrence, keeps item whole

    sccs = strongly_connected_components(list(range(len(target.body))), adjacency)
    return [tuple(target.body[i] for i in comp) for comp in sccs]


def distribute_nest(
    nest_root: Loop,
    model: CostModel | None = None,
    used_names: set[str] | None = None,
) -> DistributeOutcome | None:
    """Try to enable memory order via distribution + permutation.

    ``used_names`` supplies every loop-index name already used in the
    enclosing program so duplicated loops get fresh names.
    """
    model = model or CostModel()
    if used_names is None:
        used_names = {l.var for l in iter_loops(nest_root)}

    obs = get_obs()
    levels = _loops_by_level(nest_root)
    max_level = max(levels)
    with obs.span("distribute", var=nest_root.var):
        for level in range(max_level - 1 if max_level > 1 else 1, 0, -1):
            for path, target in levels.get(level, ()):
                outcome = _try_distribute(
                    nest_root, path, target, level, model, used_names
                )
                if outcome is not None:
                    if obs.enabled:
                        obs.remark(
                            "distribute",
                            "applied",
                            f"distributed at level {outcome.level} into "
                            f"{outcome.new_nests} nests",
                            loops=(target.var,),
                            level=outcome.level,
                            new_nests=outcome.new_nests,
                        )
                        obs.metrics.counter("distribute.applied").inc()
                    return outcome
    if obs.enabled:
        obs.remark(
            "distribute",
            "rejected",
            "no distribution enables memory order",
            loops=(nest_root.var,),
            reason="no-enabling-partition",
        )
        obs.metrics.counter("distribute.rejected").inc()
    return None


def _loops_by_level(nest_root: Loop) -> dict[int, list[tuple[Path, Loop]]]:
    """Each loop of the nest with its path from the nest root, by level."""
    levels: dict[int, list[tuple[Path, Loop]]] = {}

    def walk(loop: Loop, path: Path) -> None:
        levels.setdefault(len(path) + 1, []).append((path, loop))
        for index, item in enumerate(loop.body):
            if isinstance(item, Loop):
                walk(item, path + (index,))

    walk(nest_root, ())
    return levels


def _try_distribute(
    nest_root: Loop,
    target_path: Path,
    target: Loop,
    level: int,
    model: CostModel,
    used_names: set[str],
) -> DistributeOutcome | None:
    partitions = finest_partitions(nest_root, target, level)
    if len(partitions) < 2:
        return None

    path = (0,) + target_path
    context = loops_above((nest_root,), path)

    names: list[str] = []
    taken = set(used_names)
    for idx in range(len(partitions)):
        var = target.var if idx == 0 else fresh_name(target.var, taken)
        taken.add(var)
        names.append(var)
    copies = _copies(target, partitions, names)

    improved = False
    rebuilt: list[Loop] = []
    results: list[PermuteResult] = []
    orders: list[tuple[tuple[str, ...], tuple[str, ...]] | None] = []
    for copy in copies:
        if len(copy.perfect_nest_loops()) >= 2:
            res = permute_nest(copy, model, outer_loops=context)
            results.append(res)
            rebuilt.append(res.loop)
            orders.append((res.order, res.reversed_loops) if res.applied else None)
            if res.applied and (
                res.achieved_memory_order or res.inner_in_memory_position
            ):
                improved = True
        else:
            rebuilt.append(copy)
            orders.append(None)

    if not improved:
        return None

    position = {id(item): i for i, item in enumerate(target.body)}
    return DistributeOutcome(
        nodes=replace_at((nest_root,), path, rebuilt),
        level=level,
        new_nests=len(copies),
        permutations=tuple(results),
        target_path=target_path,
        partitions=tuple(
            tuple(position[id(item)] for item in partition)
            for partition in partitions
        ),
        names=tuple(names),
        orders=tuple(orders),
    )


def replay_distribution(
    nest_root: Loop,
    target_path: tuple[int, ...],
    partitions: tuple[tuple[int, ...], ...],
    names: tuple[str, ...],
    orders: tuple[tuple[tuple[str, ...], tuple[str, ...]] | None, ...],
    outer_loops: tuple[Loop, ...] = (),
) -> tuple["Loop | Assign", ...]:
    """Repeat a recorded split (see :class:`DistributeOutcome`) on a nest.

    No dependence test or cost model runs: the partitions and orders are
    taken as given, so a replay is only as legal as its record.
    """
    path = (0,) + target_path
    target: Loop = node_at((nest_root,), path)  # type: ignore[assignment]
    context = outer_loops + loops_above((nest_root,), path)
    copies = _copies(
        target,
        [tuple(target.body[i] for i in partition) for partition in partitions],
        names,
    )
    rebuilt = tuple(
        copy
        if plan is None
        else apply_order(copy.perfect_nest_loops(), plan[0], set(plan[1]), context)
        for copy, plan in zip(copies, orders)
    )
    return replace_at((nest_root,), path, rebuilt)


def _copies(
    target: Loop,
    partitions: "list[tuple[Loop | Assign, ...]]",
    names: "list[str] | tuple[str, ...]",
) -> list[Loop]:
    """One copy of ``target`` per partition, the first keeping its name."""
    copies: list[Loop] = []
    for var, partition in zip(names, partitions):
        base = target.with_body(partition)
        copies.append(
            base if var == target.var else rename_loops(base, {target.var: var})
        )
    return copies
