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

from repro.dependence.graph import DependenceGraph
from repro.dependence.pairs import region_dependences
from repro.ir.nodes import Assign, Loop
from repro.ir.visit import fresh_name, iter_loops, iter_statements, rename_loops
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

    from repro.dependence.graph import strongly_connected_components

    sccs = strongly_connected_components(list(range(len(target.body))), adjacency)
    return [tuple(target.body[i] for i in comp) for comp in sccs]


def distribute_nest(
    nest_root: Loop,
    model: CostModel | None = None,
    outer_loops: tuple[Loop, ...] = (),
    used_names: set[str] | None = None,
) -> DistributeOutcome | None:
    """Try to enable memory order via distribution + permutation.

    ``used_names`` supplies every loop-index name already used in the
    enclosing program so duplicated loops get fresh names.
    """
    model = model or CostModel()
    if used_names is None:
        used_names = {l.var for l in iter_loops(nest_root)}
        used_names |= {l.var for l in outer_loops}

    obs = get_obs()
    levels = _loops_by_level(nest_root)
    max_level = max(levels)
    with obs.span("distribute", var=nest_root.var):
        for level in range(max_level - 1 if max_level > 1 else 1, 0, -1):
            for target in levels.get(level, ()):
                outcome = _try_distribute(
                    nest_root, target, level, model, outer_loops, used_names
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


def _loops_by_level(nest_root: Loop) -> dict[int, list[Loop]]:
    levels: dict[int, list[Loop]] = {}

    def walk(loop: Loop, level: int) -> None:
        levels.setdefault(level, []).append(loop)
        for item in loop.body:
            if isinstance(item, Loop):
                walk(item, level + 1)

    walk(nest_root, 1)
    return levels


def _try_distribute(
    nest_root: Loop,
    target: Loop,
    level: int,
    model: CostModel,
    outer_loops: tuple[Loop, ...],
    used_names: set[str],
) -> DistributeOutcome | None:
    partitions = finest_partitions(nest_root, target, level)
    if len(partitions) < 2:
        return None

    path = _path_to(nest_root, target)
    context = outer_loops + path

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
            res = permute_nest(copy, model, outer_loops=context[:-1])
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

    nodes = _replace(nest_root, target, tuple(rebuilt))
    position = {id(item): i for i, item in enumerate(target.body)}
    return DistributeOutcome(
        nodes=nodes,
        level=level,
        new_nests=len(copies),
        permutations=tuple(results),
        target_path=tuple(
            next(i for i, item in enumerate(outer.body) if item is inner)
            for outer, inner in zip(path, path[1:])
        ),
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
    path = [nest_root]
    for index in target_path:
        path.append(path[-1].body[index])
    target = path[-1]
    context = outer_loops + tuple(path)
    copies = _copies(
        target,
        [tuple(target.body[i] for i in partition) for partition in partitions],
        names,
    )
    rebuilt = tuple(
        copy
        if plan is None
        else apply_order(
            copy.perfect_nest_loops(), plan[0], set(plan[1]), context[:-1]
        )
        for copy, plan in zip(copies, orders)
    )
    return _replace(nest_root, target, rebuilt)


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


def _path_to(nest_root: Loop, target: Loop) -> tuple[Loop, ...]:
    """Enclosing loops of ``target`` within the nest, outermost first,
    ending with ``target`` itself."""

    def walk(loop: Loop, path: tuple[Loop, ...]):
        path = path + (loop,)
        if loop is target:
            return path
        for item in loop.body:
            if isinstance(item, Loop):
                found = walk(item, path)
                if found:
                    return found
        return None

    result = walk(nest_root, ())
    if result is None:
        raise ValueError("target loop not inside nest")
    return result


def _replace(
    nest_root: Loop, target: Loop, replacements: tuple["Loop | Assign", ...]
) -> tuple["Loop | Assign", ...]:
    """Replace ``target`` by ``replacements`` within the nest tree."""
    if nest_root is target:
        return replacements

    def rebuild(loop: Loop) -> Loop:
        new_body: list[Loop | Assign] = []
        for item in loop.body:
            if item is target:
                new_body.extend(replacements)
            elif isinstance(item, Loop):
                new_body.append(rebuild(item))
            else:
                new_body.append(item)
        return loop.with_body(new_body)

    return (rebuild(nest_root),)
