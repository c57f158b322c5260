"""Loop fusion (paper §4.3, Figure 4).

Fusion serves two purposes: improving group-temporal locality between
adjacent compatible nests, and merging all inner loops of an imperfect
nest into a perfect one so permutation can proceed (§4.3.2).

The greedy algorithm partitions adjacent candidate nests into sets with
compatible headers (deepest compatibility first), builds the dependence
DAG between nests, and fuses a pair when the cost model reports a
locality benefit and fusion is legal:

* no dependence path between the two nests through a third, unfused nest;
* no fusion-preventing dependence — a cross-nest dependence that would
  run backwards (lexicographically negative) in the fused loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dependence.pairs import region_dependences
from repro.dependence.tests import analyze_ref_pair
from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import (
    enclosing_loops,
    fresh_name,
    iter_loops,
    iter_statements,
    rename_loops,
)
from repro.model.loopcost import CostModel
from repro.obs import get_obs

__all__ = [
    "FusionOutcome",
    "fuse_adjacent",
    "fuse_all",
    "compatible_depth",
    "fuse_pair",
    "replay_fusion",
]


# ----------------------------------------------------------------------
# Compatibility
# ----------------------------------------------------------------------
def compatible_depth(l1: Loop, l2: Loop) -> int:
    """Depth to which two nests have compatible, perfectly nested headers.

    Headers are compatible when bounds and step are identical after
    renaming l2's outer indices to l1's (the paper's "same number of
    iterations", realized as same ranges so no alignment is needed).
    """
    depth = 0
    mapping: dict[str, str] = {}
    a, b = l1, l2
    while True:
        lb2 = b.lb.rename(mapping)
        ub2 = b.ub.rename(mapping)
        if not (a.lb == lb2 and a.ub == ub2 and a.step == b.step):
            return depth
        depth += 1
        mapping[b.var] = a.var
        if (
            len(a.body) == 1
            and isinstance(a.body[0], Loop)
            and len(b.body) == 1
            and isinstance(b.body[0], Loop)
        ):
            a, b = a.body[0], b.body[0]
            continue
        return depth


def fuse_pair(l1: Loop, l2: Loop, depth: int) -> Loop:
    """Fuse two nests at ``depth`` compatible levels (headers from l1)."""
    mapping: dict[str, str] = {}
    a, b = l1, l2
    for _ in range(depth):
        mapping[b.var] = a.var
        if a.body and isinstance(a.body[0], Loop) and len(a.body) == 1:
            if b.body and isinstance(b.body[0], Loop) and len(b.body) == 1:
                a, b = a.body[0], b.body[0]

    renamed = rename_loops(l2, mapping)

    def merge(x: Loop, y: Loop, levels: int) -> Loop:
        if levels == 1:
            return x.with_body(tuple(x.body) + tuple(y.body))
        return x.with_body((merge(x.body[0], y.body[0], levels - 1),))

    return merge(l1, renamed, depth)


# ----------------------------------------------------------------------
# Legality
# ----------------------------------------------------------------------
def fusion_preventing(l1: Loop, l2: Loop, depth: int) -> bool:
    """Would fusing reverse a cross-nest dependence?

    Builds the fused candidate and checks every cross pair of references:
    a feasible dependence vector that is not lexicographically
    non-negative means some instance of the (textually later) second body
    would need to execute before the matching instance of the first —
    fusion is illegal. Leading '*' components (e.g. scalar traffic) are
    conservatively illegal.
    """
    sids1 = {s.sid for s in l1.statements}
    fused = fuse_pair(l1, l2, depth)
    chains = enclosing_loops(fused)
    stmts = {s.sid: s for s in iter_statements(fused)}
    for sid_a, stmt_a in stmts.items():
        for sid_b, stmt_b in stmts.items():
            if (sid_a in sids1) == (sid_b in sids1):
                continue  # same original nest
            if sid_a not in sids1:
                continue  # consider pairs (first nest, second nest) once
            chain_a, chain_b = chains[sid_a], chains[sid_b]
            k = 0
            while (
                k < len(chain_a)
                and k < len(chain_b)
                and chain_a[k] is chain_b[k]
            ):
                k += 1
            for ref_a in stmt_a.refs:
                for ref_b in stmt_b.refs:
                    writes = (ref_a is stmt_a.lhs) or (ref_b is stmt_b.lhs)
                    if not writes or ref_a.array != ref_b.array:
                        continue
                    vectors = analyze_ref_pair(
                        ref_a, ref_b, chain_a[:k], chain_a[k:], chain_b[k:]
                    )
                    if any(not v.is_legal() for v in vectors):
                        return True
    return False


# ----------------------------------------------------------------------
# The greedy driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusionOutcome:
    """Result of fusing an adjacent run of nests."""

    items: tuple["Loop | Assign", ...]
    candidates: int  # nests that had a compatible partner (Table 2's C)
    fused: int  # nests merged away into another (Table 2's A)
    #: ``(a, b, depth)`` per fusion, in order: item ``b`` of the input was
    #: fused into item ``a`` (each index names the input item, or the
    #: nest it has grown into) at ``depth`` levels.
    merges: tuple[tuple[int, int, int], ...] = ()


def _min_cost(loop: Loop, model: CostModel) -> float:
    costs = model.loop_costs(loop)
    if not costs:
        return 0.0
    return min(c.magnitude() for c in costs.values())


def fusion_benefit(l1: Loop, l2: Loop, depth: int, model: CostModel) -> float:
    """Unfused-minus-fused LoopCost at each version's best inner loop."""
    fused = fuse_pair(l1, l2, depth)
    separate = _min_cost(l1, model) + _min_cost(l2, model)
    return separate - _min_cost(fused, CostModel(cls=model.cls, temporal_max=model.temporal_max))


def fuse_adjacent(
    items: "tuple[Loop | Assign, ...]",
    model: CostModel | None = None,
    require_benefit: bool = True,
    cache_capacity: "tuple[int, int] | None" = None,
    param_env: dict | None = None,
) -> FusionOutcome:
    """Greedily fuse compatible adjacent loops within a body item list.

    Statements between loops act as barriers (they are ordering-relevant
    and cheap to respect). Within each run of adjacent loops, pairs are
    considered deepest-compatibility-first, fusing when legal (and, if
    ``require_benefit``, when the cost model reports a locality gain).

    ``cache_capacity``, when given as ``(cache_bytes, line_bytes)``,
    enables the capacity veto of paper §5.5: a fusion whose merged
    innermost working set cannot fit in the cache is skipped (the paper
    saw fusion lower hit rates on Track/Dnasa7/Wave for exactly this
    reason and called the check out as future work).
    """
    model = model or CostModel()
    out: list[Loop | Assign] = []
    candidates_total = 0
    fused_total = 0
    run: list[Loop] = []
    merges: list[tuple[int, int, int]] = []

    def flush(end: int) -> None:
        nonlocal candidates_total, fused_total
        if len(run) > 1:
            merged, cands, fused, run_merges = _fuse_run(
                tuple(run), model, require_benefit, cache_capacity, param_env
            )
            out.extend(merged)
            candidates_total += cands
            fused_total += fused
            start = end - len(run)
            merges.extend((start + a, start + b, d) for a, b, d in run_merges)
        else:
            out.extend(run)
        run.clear()

    for index, item in enumerate(items):
        if isinstance(item, Loop):
            run.append(item)
        else:
            flush(index)
            out.append(item)
    flush(len(items))
    return FusionOutcome(tuple(out), candidates_total, fused_total, tuple(merges))


def replay_fusion(
    items: "tuple[Loop | Assign, ...]", merges: tuple[tuple[int, int, int], ...]
) -> tuple["Loop | Assign", ...]:
    """Repeat recorded fusions (see :class:`FusionOutcome`) on a body.

    No legality or benefit test runs: the merges are taken as given.
    """
    current = dict(enumerate(items))
    for a, b, depth in merges:
        current[a] = fuse_pair(current[a], current[b], depth)
        del current[b]
    return tuple(current[index] for index in sorted(current))


def _fuse_run(
    nests: tuple[Loop, ...],
    model: CostModel,
    require_benefit: bool,
    cache_capacity: "tuple[int, int] | None" = None,
    param_env: dict | None = None,
) -> tuple[list[Loop], int, int, list[tuple[int, int, int]]]:
    n = len(nests)
    depth = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            depth[i][j] = compatible_depth(nests[i], nests[j])
    candidates = len(
        {
            i
            for i in range(n)
            for j in range(n)
            if i != j and depth[min(i, j)][max(i, j)] > 0
        }
    )

    # Dependence DAG between nests (edges i -> j for i < j).
    edges = _nest_dag(nests)

    # Greedy merge, deepest compatibility first.
    cluster = list(range(n))  # cluster representative per nest

    def find(i: int) -> int:
        while cluster[i] != i:
            i = cluster[i]
        return i

    merged_into: dict[int, list[int]] = {i: [i] for i in range(n)}
    pairs = sorted(
        (
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if depth[i][j] > 0
        ),
        key=lambda p: -depth[p[0]][p[1]],
    )
    fused_count = 0
    merges: list[tuple[int, int, int]] = []
    current: dict[int, Loop] = {i: nests[i] for i in range(n)}

    obs = get_obs()
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        a, b = (ri, rj) if ri < rj else (rj, ri)
        d = compatible_depth(current[a], current[b])
        if d == 0:
            continue
        pair_vars = (current[a].var, current[b].var)
        if require_benefit and fusion_benefit(current[a], current[b], d, model) <= 0:
            if obs.enabled:
                obs.remark(
                    "fusion",
                    "rejected",
                    "fusion rejected: no locality benefit",
                    loops=pair_vars,
                    reason="no-benefit",
                    depth=d,
                )
                obs.metrics.counter("fusion.rejected").inc()
            continue
        if _path_through_others(edges, merged_into, a, b):
            if obs.enabled:
                obs.remark(
                    "fusion",
                    "rejected",
                    "fusion rejected: dependence path through an unfused nest",
                    loops=pair_vars,
                    reason="intervening-path",
                    depth=d,
                )
                obs.metrics.counter("fusion.rejected").inc()
            continue
        if fusion_preventing(current[a], current[b], d):
            if obs.enabled:
                obs.remark(
                    "fusion",
                    "rejected",
                    "fusion rejected: fusion-preventing dependence",
                    loops=pair_vars,
                    reason="fusion-preventing",
                    depth=d,
                )
                obs.metrics.counter("fusion.rejected").inc()
            continue
        if cache_capacity is not None:
            from repro.model.capacity import fits_in_cache

            cache_bytes, line_bytes = cache_capacity
            candidate = fuse_pair(current[a], current[b], d)
            if not fits_in_cache(
                candidate,
                CostModel(cls=model.cls),
                cache_bytes,
                line_bytes,
                env=param_env,
            ):
                if obs.enabled:
                    obs.remark(
                        "fusion",
                        "rejected",
                        "fusion rejected: merged working set overflows cache",
                        loops=pair_vars,
                        reason="capacity",
                        depth=d,
                    )
                    obs.metrics.counter("fusion.rejected").inc()
                continue
        current[a] = fuse_pair(current[a], current[b], d)
        merges.append((a, b, d))
        cluster[b] = a
        merged_into[a].extend(merged_into.pop(b))
        del current[b]
        fused_count += 1
        if obs.enabled:
            obs.remark(
                "fusion",
                "applied",
                f"fused nests at depth {d}",
                loops=pair_vars,
                depth=d,
            )
            obs.metrics.counter("fusion.applied").inc()

    ordered = [current[rep] for rep in sorted(current)]
    return ordered, candidates, fused_count, merges


def _nest_dag(nests: tuple[Loop, ...]) -> set[tuple[int, int]]:
    """Ordering edges between nests from cross-nest dependences."""
    container = Program("fusion-region", (), (), tuple(nests))
    nest_of: dict[int, int] = {}
    for idx, nest in enumerate(nests):
        for stmt in nest.statements:
            nest_of[stmt.sid] = idx
    edges: set[tuple[int, int]] = set()
    for dep in region_dependences(container):
        a = nest_of[dep.source.sid]
        b = nest_of[dep.sink.sid]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return edges


def _path_through_others(
    edges: set[tuple[int, int]],
    merged_into: dict[int, list[int]],
    a: int,
    b: int,
) -> bool:
    """Is there a dependence path a ->* x ->* b through a foreign cluster?

    Fusing a and b with such a path would force x's cluster between them,
    which fusion makes impossible.
    """
    members = set(merged_into[a]) | set(merged_into[b])
    adjacency: dict[int, set[int]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    # BFS from a's members staying outside the union, looking for b.
    frontier = [
        nxt
        for m in merged_into[a]
        for nxt in adjacency.get(m, ())
        if nxt not in members
    ]
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt in set(merged_into[b]):
                return True
            if nxt not in seen and nxt not in members:
                seen.add(nxt)
                frontier.append(nxt)
    return False


# ----------------------------------------------------------------------
# FuseAll: make an imperfect nest perfect (fusion as permutation enabler)
# ----------------------------------------------------------------------
def fuse_all(loop: Loop) -> Loop | None:
    """Fuse all sibling inner loops at every level, ignoring profitability.

    Returns the perfect nest, or None when any level mixes statements with
    loops, has incompatible siblings, or a fusion would be illegal.
    """
    obs = get_obs()
    if all(isinstance(item, Assign) for item in loop.body):
        return loop
    if not all(isinstance(item, Loop) for item in loop.body):
        if obs.enabled:
            obs.remark(
                "fuse-all",
                "rejected",
                "cannot make nest perfect: statements mixed with loops",
                loops=(loop.var,),
                reason="mixed-body",
            )
        return None
    siblings = list(loop.body)
    acc = siblings[0]
    for nxt in siblings[1:]:
        d = compatible_depth(acc, nxt)
        if d == 0:
            if obs.enabled:
                obs.remark(
                    "fuse-all",
                    "rejected",
                    "cannot make nest perfect: incompatible sibling headers",
                    loops=(acc.var, nxt.var),
                    reason="incompatible-headers",
                )
            return None
        if fusion_preventing(acc, nxt, d):
            if obs.enabled:
                obs.remark(
                    "fuse-all",
                    "rejected",
                    "cannot make nest perfect: fusion-preventing dependence",
                    loops=(acc.var, nxt.var),
                    reason="fusion-preventing",
                )
            return None
        acc = fuse_pair(acc, nxt, d)
    inner = fuse_all(acc)
    if inner is None:
        return None
    return loop.with_body((inner,))
