"""Exact reuse-distance (LRU stack distance) analysis.

The reuse distance of an access is the number of *distinct* cache lines
touched since the previous access to the same line (infinite for cold
accesses). It characterizes locality independently of any particular
cache size: a fully associative LRU cache of capacity C hits exactly the
accesses with reuse distance < C. That equivalence is the classic Mattson
stack-distance result, and the test suite checks it against the cache
simulator directly.

:class:`ReuseDistanceAnalyzer` consumes the block trace
(:mod:`repro.exec.blocktrace`). It fills one global :class:`ReuseProfile`
and, given the program, one :class:`RefProfile` per ``(sid, slot)``. The
LRU stack is an order-statistics structure (a Fenwick tree over access
timestamps), O(log n) per access, sized to the live lines rather than to
the trace. The interpreter-fed oracle it is tested against is
:class:`repro.locality.histogram.PerRefReuseAnalyzer`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.ir.nodes import Program
from repro.ir.visit import iter_statements

__all__ = [
    "COLD",
    "RefProfile",
    "ReuseDistanceAnalyzer",
    "ReuseProfile",
    "per_ref_profile",
    "reuse_profile",
]

#: Distance bucket used for cold (first-touch) accesses.
COLD = -1

#: Timestamp slots the LRU stack starts with; it grows on demand.
INITIAL_CAPACITY = 1 << 16


def line_shift(line: int) -> int:
    """log2 of a line size in bytes (which must be a power of two)."""
    if line <= 0 or line & (line - 1):
        raise ValueError("line size must be a power of two")
    return line.bit_length() - 1


class LRUStack:
    """LRU stack distances of a stream of line ids.

    Each line's latest access holds one live timestamp in a Fenwick tree;
    the distance of a reuse is the number of live timestamps after the
    line's previous one. When the timestamps run out, the live ones are
    renumbered in order and the tree is rebuilt at twice the size needed,
    so its size follows the distinct lines, not the trace length.
    """

    def __init__(self) -> None:
        self._last: dict[int, int] = {}
        self._clock = 0
        self._tree = [0] * (INITIAL_CAPACITY + 1)

    def distances(self, lines: list[int]) -> list[int]:
        """Stack distance (``COLD`` for a first touch) of each line, in
        order, pushing every line onto the stack."""
        if self._clock + len(lines) >= len(self._tree):
            self._compact(len(lines))
        tree = self._tree
        size = len(tree) - 1
        last = self._last
        clock = self._clock
        out = []
        for line in lines:
            previous = last.get(line)
            if previous is None:
                out.append(COLD)
            else:
                # Live timestamps up to and including `previous`; every
                # live line holds exactly one, so the rest came after it.
                index = previous + 1
                before = 0
                while index > 0:
                    before += tree[index]
                    index &= index - 1
                out.append(len(last) - before)
                index = previous + 1
                while index <= size:
                    tree[index] -= 1
                    index += index & -index
            index = clock + 1
            while index <= size:
                tree[index] += 1
                index += index & -index
            last[line] = clock
            clock += 1
        self._clock = clock
        return out

    def _compact(self, incoming: int) -> None:
        """Renumber live timestamps 0..L-1 and rebuild the tree with room
        for ``incoming`` more."""
        lines = sorted(self._last, key=self._last.__getitem__)
        live = len(lines)
        self._last = {line: time for time, line in enumerate(lines)}
        self._clock = live
        size = max(INITIAL_CAPACITY, 2 * (live + incoming))
        # Node i sums positions (i - lowbit(i), i]; positions 1..live hold 1.
        index = np.arange(1, size + 1, dtype=np.int64)
        covered = np.minimum(index, live) - (index - (index & -index))
        self._tree = [0] + np.maximum(covered, 0).tolist()


@dataclass
class ReuseProfile:
    """Histogram of reuse distances (line granularity)."""

    histogram: Counter = field(default_factory=Counter)
    accesses: int = 0

    @property
    def cold(self) -> int:
        return self.histogram.get(COLD, 0)

    def hits_for_capacity(self, lines: int) -> int:
        """Accesses a fully-associative LRU cache of that many lines hits."""
        return sum(
            count
            for distance, count in self.histogram.items()
            if distance != COLD and distance < lines
        )

    def hit_rate_for_capacity(self, lines: int, include_cold: bool = False) -> float:
        denom = self.accesses if include_cold else self.accesses - self.cold
        if denom <= 0:
            return 1.0
        return self.hits_for_capacity(lines) / denom

    def percentile(self, fraction: float) -> int:
        """Smallest distance d such that >= fraction of (warm) reuses have
        distance <= d; the 'working set knee'."""
        warm = self.accesses - self.cold
        if warm <= 0:
            return 0
        target = warm * fraction
        running = 0
        for distance in sorted(d for d in self.histogram if d != COLD):
            running += self.histogram[distance]
            if running >= target:
                return distance
        return max((d for d in self.histogram if d != COLD), default=0)


@dataclass
class RefProfile(ReuseProfile):
    """Reuse-distance histogram of one reference slot.

    Slot identity follows ``Assign.refs`` (write first, reads after), the
    same convention as :class:`repro.dependence.pairs.RefSite`.
    """

    sid: int = -1
    slot: int = -1
    array: str = ""


def stream_slots(program: Program) -> dict[int, tuple[tuple[int, str], ...]]:
    """Per sid: (refs-slot, array) of each *emitting* slot in stream order.

    The trace engines emit reads left-to-right, then the write; rank-0
    scalar references emit nothing. ``refs`` is write-first, so the read
    at ``reads[i]`` sits at refs slot ``i + 1``.
    """
    table: dict[int, tuple[tuple[int, str], ...]] = {}
    for stmt in iter_statements(program):
        order: list[tuple[int, str]] = []
        for i, ref in enumerate(stmt.reads):
            if ref.rank:
                order.append((i + 1, ref.array))
        if stmt.lhs.rank:
            order.append((0, stmt.lhs.array))
        table[stmt.sid] = tuple(order)
    return table


def ref_profiles(program: Program) -> dict[tuple[int, int], RefProfile]:
    """An empty :class:`RefProfile` per emitting ``(sid, slot)``."""
    return {
        (sid, slot): RefProfile(sid=sid, slot=slot, array=array)
        for sid, order in stream_slots(program).items()
        for slot, array in order
    }


class ReuseDistanceAnalyzer:
    """Exact reuse distances over :class:`repro.exec.AccessBlock`\\ s.

    ``profile`` is the global histogram. Given ``program``, ``profiles``
    holds one :class:`RefProfile` per ``(sid, slot)``; a statement's
    accesses arrive slot by slot in stream order, so each access's slot
    is its rank among its statement's accesses. ``max_accesses``, when
    set, caps the trace length (``ReproError`` beyond it).
    """

    def __init__(
        self,
        line: int = 128,
        program: Program | None = None,
        max_accesses: int | None = None,
    ):
        self._shift = line_shift(line)
        self.max_accesses = max_accesses
        self.profile = ReuseProfile()
        self.profiles = ref_profiles(program) if program is not None else {}
        self._refs = list(self.profiles.values())
        # sid -> indices into _refs of its slots, in stream order.
        by_sid: dict[int, list[int]] = {}
        for i, (sid, _) in enumerate(self.profiles):
            by_sid.setdefault(sid, []).append(i)
        self._slot_index = {
            sid: np.array(indices, dtype=np.int64) for sid, indices in by_sid.items()
        }
        self._cursor = dict.fromkeys(self._slot_index, 0)
        self._stack = LRUStack()
        self._last_line: int | None = None

    def on_block(self, block) -> None:
        lines = block.addresses >> self._shift
        n = lines.shape[0]
        if n == 0:
            return
        if self.max_accesses is not None and self.profile.accesses + n > self.max_accesses:
            raise ReproError(f"trace exceeds max_accesses={self.max_accesses}")
        self.profile.accesses += n
        # A repeat of the line just touched is a zero-distance reuse that
        # leaves the stack as it is: only run starts enter the tree.
        starts = np.empty(n, dtype=bool)
        starts[0] = int(lines[0]) != self._last_line
        np.not_equal(lines[1:], lines[:-1], out=starts[1:])
        self._last_line = int(lines[-1])
        start_distances = np.array(
            self._stack.distances(lines[starts].tolist()), dtype=np.int64
        )
        histogram = self.profile.histogram
        values, counts = np.unique(start_distances, return_counts=True)
        for distance, count in zip(values.tolist(), counts.tolist()):
            histogram[distance] += count
        repeats = n - start_distances.shape[0]
        if repeats:
            histogram[0] += repeats
        if self._refs:
            distances = np.zeros(n, dtype=np.int64)
            distances[starts] = start_distances
            self._attribute(block.sids, distances)

    def _attribute(self, sids: np.ndarray, distances: np.ndarray) -> None:
        """Add one block's distances to the per-slot profiles."""
        owner = np.empty(sids.shape[0], dtype=np.int64)
        for sid in np.unique(sids).tolist():
            mask = sids == sid
            slots = self._slot_index[sid]
            count = int(np.count_nonzero(mask))
            cursor = self._cursor[sid]
            owner[mask] = slots[(cursor + np.arange(count)) % slots.shape[0]]
            self._cursor[sid] = (cursor + count) % slots.shape[0]
        span = int(distances.max()) + 2  # distances run from COLD = -1
        keys, counts = np.unique(owner * span + distances + 1, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            ref = self._refs[key // span]
            ref.histogram[key % span - 1] += count
            ref.accesses += count


def per_ref_profile(program: Program, line: int = 128) -> ReuseDistanceAnalyzer:
    """Run the trace through the analyzer with per-slot profiles."""
    from repro.exec.blocktrace import run_trace

    analyzer = ReuseDistanceAnalyzer(line, program)
    run_trace(program, analyzer.on_block)
    return analyzer


def reuse_profile(
    program: Program,
    line: int = 128,
    max_accesses: int | None = None,
) -> ReuseProfile:
    """Reuse-distance profile of a program's trace.

    ``max_accesses``, when set, raises ``ReproError`` for longer traces.
    """
    from repro.exec.blocktrace import run_trace

    analyzer = ReuseDistanceAnalyzer(line, max_accesses=max_accesses)
    run_trace(program, analyzer.on_block)
    return analyzer.profile
