"""The interpreter-fed reuse-distance oracle.

:class:`PerRefReuseAnalyzer` takes the validating interpreter's
:class:`repro.exec.AccessEvent`\\ s one at a time — no blocks, no
collapsing of repeated lines, no vectorized slot attribution — and
attributes every LRU stack distance (line granularity) to the reference
slot that issued the access. It is the oracle that the block-fed
:class:`repro.cache.reuse.ReuseDistanceAnalyzer` is tested against, for
the global histogram and for every per-slot profile. It shares only the
LRU stack itself, which the Mattson tests check against the cache
simulator.

Slot identity follows ``Assign.refs`` (write first, reads after), the
same convention as :class:`repro.dependence.pairs.RefSite`.
"""

from __future__ import annotations

from repro.cache.reuse import (
    COLD,
    LRUStack,
    RefProfile,
    ReuseProfile,
    line_shift,
    ref_profiles,
    stream_slots,
)
from repro.exec.interp import AccessEvent, Interpreter
from repro.ir.nodes import Program

__all__ = [
    "COLD",
    "PerRefReuseAnalyzer",
    "RefProfile",
    "oracle_profile",
]


class PerRefReuseAnalyzer:
    """Exact per-reference reuse distances over interpreter events."""

    def __init__(self, program: Program, line: int = 128):
        self._shift = line_shift(line)
        self._slots = stream_slots(program)
        self._cursor = dict.fromkeys(self._slots, 0)
        self.profiles = ref_profiles(program)
        self.profile = ReuseProfile()
        self._stack = LRUStack()

    def __call__(self, event: AccessEvent) -> None:
        order = self._slots[event.sid]
        cursor = self._cursor[event.sid]
        self._cursor[event.sid] = (cursor + 1) % len(order)
        ref = self.profiles[(event.sid, order[cursor][0])]
        (distance,) = self._stack.distances([event.address >> self._shift])
        for profile in (ref, self.profile):
            profile.accesses += 1
            profile.histogram[distance] += 1


def oracle_profile(
    program: Program,
    line: int = 128,
    init=None,
) -> PerRefReuseAnalyzer:
    """Run the interpreter (with ``init``) through the oracle analyzer.

    Addresses do not depend on values, so non-finite values are allowed.
    """
    analyzer = PerRefReuseAnalyzer(program, line=line)
    Interpreter(program, on_access=analyzer, init=init, check_values=False).run()
    return analyzer
