"""Permute: achieve memory order on a perfect nest (paper §4.1, §4.2).

The algorithm sorts the nest's loops into memory order when the
corresponding permutation of every dependence vector stays
lexicographically positive. When memory order is illegal, a greedy pass
(from [KM92]) places loops outermost-first, at each position choosing the
most-expensive legally-placeable loop; if a loop cannot be placed, loop
*reversal* is tried as an enabler (§4.2) before falling back to the next
candidate. The greedy order positions the loop carrying the most reuse
innermost whenever any legal permutation can.

Triangular nests get their bounds recomputed by Fourier–Motzkin
elimination (see :mod:`repro.transforms.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransformError
from repro.ir.nodes import Loop
from repro.model.loopcost import CostModel
from repro.obs import get_obs
from repro.transforms.bounds import permuted_bounds
from repro.transforms.legality import (
    constraining_vectors,
    order_is_legal,
    prefix_is_legal,
)

__all__ = ["PermuteResult", "permute_nest"]


@dataclass(frozen=True)
class PermuteResult:
    """Outcome of :func:`permute_nest`.

    Attributes:
        loop: resulting nest (the original object when nothing changed).
        applied: whether the nest was actually rebuilt.
        order: achieved loop order, outermost first.
        desired: memory order, outermost first.
        original: original loop order.
        achieved_memory_order: achieved == desired.
        inner_in_memory_position: innermost loop is the desired one.
        originally_in_memory_order: the nest was already in memory order.
        reversed_loops: loops that run backwards in the result.
        failure: None, or 'dependences' / 'bounds' when memory order could
            not be achieved (the paper's two failure classes).
    """

    loop: Loop
    applied: bool
    order: tuple[str, ...]
    desired: tuple[str, ...]
    original: tuple[str, ...]
    achieved_memory_order: bool
    inner_in_memory_position: bool
    originally_in_memory_order: bool
    reversed_loops: tuple[str, ...] = ()
    failure: str | None = None


def _rejected(
    nest_root: Loop,
    original: tuple[str, ...],
    desired: tuple[str, ...],
    failure: str,
    message: str,
) -> PermuteResult:
    """The unchanged nest, with the ``rejected`` remark and counter."""
    obs = get_obs()
    if obs.enabled:
        obs.remark(
            "permute",
            "rejected",
            message,
            loops=original,
            reason=failure,
            desired=desired,
        )
        obs.metrics.counter("permute.rejected").inc()
    return PermuteResult(
        nest_root,
        applied=False,
        order=original,
        desired=desired,
        original=original,
        achieved_memory_order=False,
        inner_in_memory_position=original[-1] == desired[-1],
        originally_in_memory_order=False,
        failure=failure,
    )


def permute_nest(
    nest_root: Loop,
    model: CostModel | None = None,
    outer_loops: tuple[Loop, ...] = (),
    enable_reversal: bool = True,
) -> PermuteResult:
    """Permute the perfect nest headed by ``nest_root`` into memory order."""
    model = model or CostModel()
    obs = get_obs()
    chain = nest_root.perfect_nest_loops()
    original = tuple(loop.var for loop in chain)
    desired = tuple(model.memory_order(nest_root, outer=tuple(outer_loops)))
    if set(desired) != set(original):
        # Imperfect nest below the perfect chain: rank only chain loops.
        desired = tuple(v for v in desired if v in set(original))

    if desired == original:
        if obs.enabled:
            obs.remark(
                "permute",
                "analysis",
                "already in memory order",
                loops=original,
            )
            obs.metrics.counter("permute.noop").inc()
        return PermuteResult(
            nest_root,
            applied=False,
            order=original,
            desired=desired,
            original=original,
            achieved_memory_order=True,
            inner_in_memory_position=True,
            originally_in_memory_order=True,
        )

    vectors = constraining_vectors(nest_root)
    index_of = {var: i for i, var in enumerate(original)}
    desired_indices = [index_of[v] for v in desired]

    # Fast path: memory order itself is legal (80% of nests in the paper).
    if order_is_legal(vectors, desired_indices):
        chosen, reversed_positions = desired_indices, frozenset()
    else:
        greedy = _greedy_order(vectors, desired_indices, enable_reversal)
        if greedy is None:
            return _rejected(
                nest_root,
                original,
                desired,
                "dependences",
                "memory order unachievable: no legal placement",
            )
        chosen, reversed_positions = greedy

    order = tuple(original[i] for i in chosen)
    reversed_vars = tuple(order[p] for p in sorted(reversed_positions))
    if order == original and not reversed_vars:
        return _rejected(
            nest_root,
            original,
            desired,
            "dependences",
            "no legal reordering improves on the original order",
        )

    try:
        rebuilt = apply_order(chain, order, set(reversed_vars), outer_loops)
    except TransformError:
        return _rejected(
            nest_root,
            original,
            desired,
            "bounds",
            f"cannot recompute bounds for order {'.'.join(order)}",
        )

    if obs.enabled:
        detail = {"order": order, "memory_order": order == desired}
        if reversed_vars:
            detail["reversed"] = reversed_vars
        obs.remark(
            "permute",
            "applied",
            f"reordered {'.'.join(original)} -> {'.'.join(order)}",
            loops=original,
            **detail,
        )
        obs.metrics.counter("permute.applied").inc()
        if reversed_vars:
            obs.metrics.counter("permute.reversals").inc(len(reversed_vars))
    return PermuteResult(
        rebuilt,
        applied=True,
        order=order,
        desired=desired,
        original=original,
        achieved_memory_order=(order == desired),
        inner_in_memory_position=(order[-1] == desired[-1]),
        originally_in_memory_order=False,
        reversed_loops=reversed_vars,
    )


def _greedy_order(
    vectors, desired_indices: list[int], enable_reversal: bool
) -> tuple[list[int], frozenset[int]] | None:
    """Outermost-first greedy placement in memory-order preference."""
    chosen: list[int] = []
    reversed_positions: set[int] = set()
    remaining = list(desired_indices)
    n = len(desired_indices)
    for position in range(n):
        placed = False
        for candidate in remaining:
            trial = chosen + [candidate]
            if prefix_is_legal(vectors, trial, frozenset(reversed_positions)):
                chosen.append(candidate)
                remaining.remove(candidate)
                placed = True
                break
            if enable_reversal:
                trial_rev = frozenset(reversed_positions | {position})
                if prefix_is_legal(vectors, trial, trial_rev):
                    chosen.append(candidate)
                    remaining.remove(candidate)
                    reversed_positions.add(position)
                    placed = True
                    break
        if not placed:
            return None
    return chosen, frozenset(reversed_positions)


def apply_order(
    chain: tuple[Loop, ...],
    order: tuple[str, ...],
    reversed_vars: set[str],
    outer_loops: tuple[Loop, ...] = (),
) -> Loop:
    """Rebuild a perfect nest with loops in ``order``.

    Raises:
        TransformError: when the new bounds cannot be derived (triangular
            coupling too complex, or reversal of a coupled loop).
    """
    by_var = {loop.var: loop for loop in chain}
    if any(var in reversed_vars for var in order):
        coupled_vars = set()
        for loop in chain:
            coupled_vars |= loop.lb.names & set(by_var)
            coupled_vars |= loop.ub.names & set(by_var)
        if coupled_vars & reversed_vars or (
            coupled_vars and reversed_vars
        ):
            raise TransformError("cannot reverse loops in a coupled nest")

    bounds = permuted_bounds(chain, order, outer_loops)
    body = chain[-1].body
    node: tuple[Loop | object, ...] = body
    for var, (lb, ub) in zip(reversed(order), reversed(bounds)):
        template = by_var[var]
        step = template.step
        if var in reversed_vars:
            lb, ub, step = ub, lb, -step
        node = (Loop(var, lb, ub, step, tuple(node)),)
    return node[0]
