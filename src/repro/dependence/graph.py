"""Tarjan strongly connected components in stable topological order.

Loop distribution needs the *finest partitions* such that statements in a
recurrence stay together (§4.4): those are the strongly connected
components of the dependence graph restricted to dependences carried at a
given level or deeper (plus loop-independent ones), in topological order.
:func:`repro.transforms.distribution.finest_partitions` builds that graph
from :func:`repro.dependence.pairs.region_dependences`; this module only
orders it.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["strongly_connected_components"]


def strongly_connected_components(
    nodes: Sequence[int], adjacency: dict[int, list[int]]
) -> list[tuple[int, ...]]:
    """Iterative Tarjan SCC, components in topological order.

    Tarjan emits components in *reverse* topological order; the result is
    reversed so that sources come first. Within a component, node order
    follows the input sequence for determinism.
    """
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work[-1]
            if child_idx == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adjacency.get(node, [])
            while child_idx < len(children):
                child = children[child_idx]
                child_idx += 1
                if child not in index_of:
                    work[-1] = (node, child_idx)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                order = {sid: i for i, sid in enumerate(nodes)}
                component.sort(key=order.__getitem__)
                components.append(tuple(component))
            else:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    components.reverse()
    return _stable_topo_order(nodes, adjacency, components)


def _stable_topo_order(
    nodes: Sequence[int],
    adjacency: dict[int, list[int]],
    components: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Kahn's algorithm over the condensation, preferring source order.

    Ties (components with no ordering constraint between them) are broken
    by the smallest original-node position, so unconstrained statements
    keep their textual order — loop distribution relies on this.
    """
    import heapq

    order = {sid: i for i, sid in enumerate(nodes)}
    comp_of = {sid: ci for ci, comp in enumerate(components) for sid in comp}
    succs: dict[int, set[int]] = {ci: set() for ci in range(len(components))}
    indegree = {ci: 0 for ci in range(len(components))}
    for src, dsts in adjacency.items():
        for dst in dsts:
            a, b = comp_of[src], comp_of[dst]
            if a != b and b not in succs[a]:
                succs[a].add(b)
                indegree[b] += 1

    key = {ci: min(order[sid] for sid in comp) for ci, comp in enumerate(components)}
    ready = [(key[ci], ci) for ci in indegree if indegree[ci] == 0]
    heapq.heapify(ready)
    result: list[tuple[int, ...]] = []
    while ready:
        _, ci = heapq.heappop(ready)
        result.append(components[ci])
        for nxt in succs[ci]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (key[nxt], nxt))
    return result
