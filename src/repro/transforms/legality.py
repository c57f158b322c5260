"""Permutation/reversal legality over dependence vectors.

A loop permutation of a perfect nest is legal when every dependence
vector, with its components reordered accordingly, remains
lexicographically non-negative. ``'*'`` components are conservatively
treated as possibly-negative.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dependence.pairs import region_dependences
from repro.dependence.vector import DepVector, _direction, _negate
from repro.ir.nodes import Loop

__all__ = [
    "constraining_vectors",
    "order_is_legal",
    "prefix_is_legal",
]


def constraining_vectors(nest_root: Loop) -> list[DepVector]:
    """Dependence vectors constraining permutation of the nest.

    Only legality-constraining kinds (flow/anti/output) matter; vectors
    shorter than the nest depth come from statements outside the perfect
    chain and are extended conservatively with '*' — but for a perfect
    nest every statement sits in the innermost body, so all vectors span
    the whole chain. Loop-independent vectors never constrain and are
    dropped.
    """
    depth = len(nest_root.perfect_nest_loops())
    vectors: list[DepVector] = []
    for dep in region_dependences(nest_root):
        if not dep.constrains_legality:
            continue
        vec = dep.vector
        if len(vec) < depth:
            vec = vec.extended(["*"] * (depth - len(vec)))
        if vec.is_loop_independent():
            continue
        vectors.append(vec)
    return vectors


def order_is_legal(
    vectors: Iterable[DepVector],
    old_index_order: Sequence[int],
    reversed_positions: frozenset[int] = frozenset(),
) -> bool:
    """Is the permutation sending position j to old loop index
    ``old_index_order[j]`` legal? ``reversed_positions`` are new positions
    whose loop runs reversed."""
    return all(
        _vector_legal(vec, old_index_order, reversed_positions)
        for vec in vectors
    )


def prefix_is_legal(
    vectors: Iterable[DepVector],
    prefix_old_indices: Sequence[int],
    reversed_positions: frozenset[int] = frozenset(),
) -> bool:
    """Can the partial outer placement be extended to a legal order?

    A prefix is acceptable when no vector is already definitely negative:
    each vector must hit '<' (satisfied), or stay all-zero so far (its
    orientation is decided by inner loops, which can always be completed
    in original relative order).
    """
    for vec in vectors:
        ok = False
        decided = False
        for pos, old_idx in enumerate(prefix_old_indices):
            comp = vec[old_idx]
            if pos in reversed_positions:
                comp = _negate(comp)
            direction = _direction(comp)
            if direction == "<":
                ok, decided = True, True
                break
            if direction in (">", "*"):
                ok, decided = False, True
                break
        if decided and not ok:
            return False
    return True


def _vector_legal(
    vec: DepVector,
    old_index_order: Sequence[int],
    reversed_positions: frozenset[int],
) -> bool:
    for pos, old_idx in enumerate(old_index_order):
        comp = vec[old_idx]
        if pos in reversed_positions:
            comp = _negate(comp)
        direction = _direction(comp)
        if direction == "<":
            return True
        if direction in (">", "*"):
            return False
    return True  # all '=' (loop independent)
