"""Brute-force dependence oracle (ground truth for the analytic tests).

Enumerates every dynamic access of a (small, concrete) program and derives
the exact set of dependences by inspecting coincident memory locations.
The analysis under test must *cover* everything the oracle finds
(conservativeness / soundness); it may report more (imprecision).

Promoted out of ``tests/oracle.py`` so the differential-testing subsystem
(:mod:`repro.verify`) can run it against randomly generated nests, not
just hand-written ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import enclosing_loops

__all__ = [
    "Access",
    "enumerate_accesses",
    "brute_force_dependences",
    "vector_covers",
    "analysis_covers",
]


@dataclass(frozen=True)
class Access:
    time: int
    sid: int
    slot: int
    is_write: bool
    iters: tuple[tuple[str, int], ...]  # loop var -> index *value*


def _ordered_slots(node: Assign) -> list[tuple[int, bool]]:
    """Slots of ``node.refs`` in dynamic firing order: reads, then the write.

    The write slot is located by consulting ``node.lhs`` explicitly — it is
    wherever the lhs object sits in ``refs`` — rather than assuming it
    occupies slot 0.  (``refs`` happens to put writes first today, but the
    oracle must not depend on that layout: a read of the same location as
    the lhs, e.g. ``A(I) = A(I) + 1``, is only told apart by identity.)
    """
    refs = node.refs
    lhs_slot = next(
        (slot for slot, ref in enumerate(refs) if ref is node.lhs), 0
    )
    order = [(slot, False) for slot in range(len(refs)) if slot != lhs_slot]
    order.append((lhs_slot, True))
    return order


def enumerate_accesses(root: "Program | Loop", env: dict[str, int]):
    """Yield every dynamic access in execution order."""
    accesses: list[tuple[str, tuple[int, ...], Access]] = []
    clock = 0
    # Per statement: (array, subscripts, slot, is_write) in firing order.
    plans: dict[int, list[tuple[str, tuple, int, bool]]] = {}

    def run(node, scope: dict[str, int], iters: tuple[tuple[str, int], ...]):
        nonlocal clock
        if isinstance(node, Assign):
            plan = plans.get(id(node))
            if plan is None:
                refs = node.refs
                plan = plans[id(node)] = [
                    (refs[slot].array, refs[slot].subs, slot, is_write)
                    for slot, is_write in _ordered_slots(node)
                ]
            # Reads fire before the write within a statement instance.
            for array, subs, slot, is_write in plan:
                location = tuple(s.evaluate(scope) for s in subs)
                accesses.append(
                    (array, location, Access(clock, node.sid, slot, is_write, iters))
                )
                clock += 1
            return
        for value in node.iter_values(scope):
            inner = dict(scope)
            inner[node.var] = value
            inner_iters = iters + ((node.var, value),)
            for child in node.body:
                run(child, inner, inner_iters)

    scope = dict(env)
    for child in root.body:
        run(child, scope, ())
    return accesses


#: Locations with at most this many accesses take the plain pairwise loop
#: (grouping costs more than it saves on so few pairs).
BUSY_LOCATION = 64

#: A collapsed group pair with more projected pairs than this has its
#: distances taken with NumPy instead of a Python double loop.
NUMPY_PAIRS = 4096

#: Projected pairs per NumPy chunk: keeps the peak memory flat however
#: many accesses a location has.
CHUNK_PAIRS = 1 << 15

#: A unit-step group pair is swept as a bitset when its key space spans
#: at most this many 64-bit words per source projection.
SWEEP_WORDS = 4


class _Links:
    """Common-loop geometry of each ordered statement pair, built once.

    A link is one ``(src_pos, snk_pos, step)`` triple per loop common to
    the two statements (outermost first): the positions of the loop's
    index value in each access's ``iters``, and the loop step. Positions
    follow a by-name lookup of ``iters`` (last binding of the name), the
    distance definition of :func:`brute_force_dependences`.
    """

    def __init__(self, root: "Program | Loop"):
        self.chains = enclosing_loops(root)
        # ``iters`` binds the loops below the root; a Loop root's own
        # chain entry is not iterated by enumerate_accesses.
        self.skip = 1 if isinstance(root, Loop) else 0
        self.positions: dict[int, dict[str, int]] = {}
        self.links: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}

    def _positions(self, sid: int) -> dict[str, int]:
        found = self.positions.get(sid)
        if found is None:
            loops = self.chains[sid][self.skip :]
            found = {loop.var: pos for pos, loop in enumerate(loops)}
            self.positions[sid] = found
        return found

    def link(self, src: int, snk: int) -> tuple[tuple[int, int, int], ...]:
        found = self.links.get((src, snk))
        if found is None:
            chain_a, chain_b = self.chains[src], self.chains[snk]
            # Common loops are the *same loop objects*, matching the
            # analysis driver; sibling nests that reuse a variable name
            # share no loops (their dependences are depth-0 orderings
            # with an empty distance vector).
            k = 0
            while k < len(chain_a) and k < len(chain_b) and chain_a[k] is chain_b[k]:
                k += 1
            pos_a, pos_b = self._positions(src), self._positions(snk)
            found = tuple(
                (pos_a[loop.var], pos_b[loop.var], loop.step) for loop in chain_a[:k]
            )
            self.links[(src, snk)] = found
        return found


def brute_force_dependences(
    root: "Program | Loop", env: dict[str, int], include_inputs: bool = False
) -> set[tuple]:
    """Exact dependences as (src_sid, src_slot, snk_sid, snk_slot, distvec).

    ``distvec`` is the tuple of index-value differences divided by the
    loop step (i.e. iteration distances in value space) over the loops
    common to the two statements, outermost first.

    The definition is pairwise: every two accesses to one location, the
    earlier as source, at least one a write unless ``include_inputs``.
    Locations with few accesses are evaluated that way. A busy location
    is evaluated per access *group* ``(sid, slot, is_write)`` instead,
    which yields the same set (see :func:`_grouped`).
    """
    links = _Links(root)
    by_location: dict[tuple, list[Access]] = defaultdict(list)
    for array, location, access in enumerate_accesses(root, env):
        by_location[(array, location)].append(access)

    found: set[tuple] = set()
    for accesses in by_location.values():  # each in time order
        if len(accesses) > BUSY_LOCATION:
            _grouped(accesses, links, include_inputs, found)
            continue
        for i, src in enumerate(accesses):
            a = src.iters
            for snk in accesses[i + 1 :]:
                if not (src.is_write or snk.is_write) and not include_inputs:
                    continue
                b = snk.iters
                dist = tuple(
                    (b[pb][1] - a[pa][1]) // step
                    for pa, pb, step in links.link(src.sid, snk.sid)
                )
                found.add((src.sid, src.slot, snk.sid, snk.slot, dist))
    return found


def _grouped(
    accesses: list[Access], links: _Links, include_inputs: bool, found: set
) -> None:
    """Dependences of one busy location, per ordered pair of access groups.

    Within a pair of groups only the accesses' projections onto the two
    statements' common loops matter: the distance of an access pair is a
    function of the two projections. A source projection ``p`` and a
    sink projection ``q`` form a dependence iff some source access
    projecting to ``p`` precedes some sink access projecting to ``q``,
    i.e. iff the earliest time of ``p`` is below the latest time of
    ``q``. So each group collapses to one (projection, time) entry per
    distinct projection before any pairing.
    """
    groups: dict[tuple[int, int, bool], list[Access]] = {}
    for access in accesses:
        groups.setdefault((access.sid, access.slot, access.is_write), []).append(
            access
        )
    collapsed: dict[tuple, dict[tuple[int, ...], int]] = {}

    def project(key, positions: tuple[int, ...], earliest: bool):
        memo_key = (key, positions, earliest)
        table = collapsed.get(memo_key)
        if table is None:
            table = {}
            for access in groups[key]:  # in time order
                vec = tuple(access.iters[p][1] for p in positions)
                if earliest:
                    table.setdefault(vec, access.time)
                else:
                    table[vec] = access.time
            collapsed[memo_key] = table
        return table

    for src_key in groups:
        for snk_key in groups:
            if not (src_key[2] or snk_key[2]) and not include_inputs:
                continue
            link = links.link(src_key[0], snk_key[0])
            sources = project(src_key, tuple(pa for pa, _, _ in link), True)
            sinks = project(snk_key, tuple(pb for _, pb, _ in link), False)
            steps = tuple(step for _, _, step in link)
            head = (src_key[0], src_key[1], snk_key[0], snk_key[1])
            if len(sources) * len(sinks) > NUMPY_PAIRS:
                dists = _distances_numpy(sources, sinks, steps)
            else:
                dists = {
                    tuple((q - p) // s for p, q, s in zip(src_vec, snk_vec, steps))
                    for src_vec, first in sources.items()
                    for snk_vec, last in sinks.items()
                    if first < last
                }
            for dist in dists:
                found.add(head + (dist,))


def _distances_numpy(
    sources: dict[tuple[int, ...], int],
    sinks: dict[tuple[int, ...], int],
    steps: tuple[int, ...],
) -> list[tuple[int, ...]]:
    """Distinct ``(q - p) // step`` over projected pairs with ``t(p) < t(q)``.

    Each distance vector is packed into one integer key, mixed radix
    over its component ranges. With unit steps the key is linear,
    ``key(p, q) = K(q) - K(p) - base``, and a dense key space is swept
    as a bitset (:func:`_sweep_keys`), without visiting pairs. Otherwise
    pairs are taken in chunks of about :data:`CHUNK_PAIRS`, each deduped
    before the next.
    """
    import numpy as np

    k = len(steps)
    src = np.array(list(sources), dtype=np.int64).reshape(len(sources), k)
    snk = np.array(list(sinks), dtype=np.int64).reshape(len(sinks), k)
    first = np.fromiter(sources.values(), dtype=np.int64, count=len(sources))
    last = np.fromiter(sinks.values(), dtype=np.int64, count=len(sinks))
    step = np.array(steps, dtype=np.int64)
    # Component ranges of the distance vectors, for the packing radix.
    low = snk.min(axis=0) - src.max(axis=0)
    high = snk.max(axis=0) - src.min(axis=0)
    lo = np.minimum(low // step, high // step)
    width = np.maximum(low // step, high // step) - lo + 1
    radix = np.ones(k, dtype=np.int64)
    for c in range(k - 2, -1, -1):
        radix[c] = radix[c + 1] * width[c + 1]
    span = int(np.prod(width))

    unit = bool(np.all(np.abs(step) == 1))
    if unit and span // 64 <= SWEEP_WORDS * len(sources):
        # With unit steps the division is exact: d = (q - p) * step.
        bits = _sweep_keys(
            ((src * step) @ radix).tolist(),
            first.tolist(),
            ((snk * step) @ radix).tolist(),
            last.tolist(),
            int(lo @ radix),
        )
        raw = np.frombuffer(bits.to_bytes((span + 7) // 8, "little"), dtype=np.uint8)
        keys = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    else:
        chunks = [np.zeros(0, dtype=np.int64)]
        rows = max(1, CHUNK_PAIRS // len(sinks))
        for start in range(0, len(sources), rows):
            i, j = np.nonzero(first[start : start + rows, None] < last[None, :])
            chunks.append(np.unique(((snk[j] - src[start + i]) // step - lo) @ radix))
        keys = np.unique(np.concatenate(chunks))
    digits = (keys[:, None] // radix) % width + lo
    return [tuple(row) for row in digits.tolist()]


def _sweep_keys(
    src_keys: list[int],
    first: list[int],
    snk_keys: list[int],
    last: list[int],
    base: int,
) -> int:
    """Bitset of ``K(q) - K(p) - base`` over the pairs with ``first(p) < last(q)``.

    Sinks are visited in order of their latest time; the sources that
    precede a sink are then a prefix of the sources in order of their
    earliest time, kept as a growing bitset ``reach`` (bit ``top - K(p)``).
    Shifting ``reach`` by ``K(q) - top - base`` yields the sink's keys at
    once, so the cost is one big-integer shift per sink and one bit per
    source, not one step per pair.
    """
    top = max(src_keys)
    sources = sorted(range(len(src_keys)), key=first.__getitem__)
    reach = found = 0
    taken = 0
    for j in sorted(range(len(snk_keys)), key=last.__getitem__):
        while taken < len(sources) and first[sources[taken]] < last[j]:
            reach |= 1 << (top - src_keys[sources[taken]])
            taken += 1
        if reach:
            found |= reach << (snk_keys[j] - top - base)
    return found


def vector_covers(vector, dist: tuple[int, ...]) -> bool:
    """Does a hybrid vector's pattern admit this exact distance vector?"""
    if len(vector) != len(dist):
        return False
    for comp, d in zip(vector.components, dist):
        if isinstance(comp, int):
            if comp != d:
                return False
        elif comp == "<":
            if d <= 0:
                return False
        elif comp == ">":
            if d >= 0:
                return False
        elif comp == "=":
            if d != 0:
                return False
        # '*' covers everything
    return True


def analysis_covers(deps, exact: set[tuple]) -> list[tuple]:
    """Return the exact dependences NOT covered by the analysis (should be [])."""
    by_pair: dict[tuple[int, int, int, int], list] = defaultdict(list)
    for d in deps:
        by_pair[(d.source.sid, d.source.slot, d.sink.sid, d.sink.slot)].append(
            d.vector
        )
    missing = []
    for dep in exact:
        vectors = by_pair.get(dep[:4], ())
        if not any(vector_covers(vector, dep[4]) for vector in vectors):
            missing.append(dep)
    return missing
