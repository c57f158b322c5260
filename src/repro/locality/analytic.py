"""Analytic reuse-distance and miss-ratio prediction — no trace required.

Predicts the reuse-distance histogram of a program directly from its
affine subscripts, loop bounds, and the column-major layout, in the
spirit of RefGroup classification (§3 of the paper) extended with
footprint/stack-distance formulas. Where simulation walks the whole
trace (O(accesses)), prediction walks the nest structure (O(slots ×
depth)).

Per reference slot the accesses are partitioned into reuse classes:

* **intra** — later occurrences of an identical reference in the same
  statement body (``C(I,J)`` read + write): tiny distance, always hits.
* **temporal** — carried by an enclosing loop whose index does not
  appear in the address (self-temporal reuse); the distance is the
  *window footprint* — distinct lines the whole loop body touches in
  one iteration of the carrier.
* **spatial** — successive iterations of the smallest-stride address
  variable landing on the same line (self-spatial reuse); distance is
  the footprint of one iteration of that variable's loop.
* **group** — members of a RefGroup (same linear address part, constant
  offsets) reusing lines behind the group leader; distance from the
  iteration lag implied by the subscript deltas.
* **sequential** — an earlier sibling nest (or earlier top-level nest)
  touched the same array: reuse at the footprint of everything between.
* **cold** — first touches, capped at the array's line count.

Counts come from exact polynomial summation over the iteration space
(:mod:`repro.locality.polysum`), so predicted histogram mass equals the
access count by construction; mean trip counts only enter distances.

On a restricted program class — one perfect rectangular nest, unit
steps, every reference invariant or iteration-injective, line size equal
to the element size — the predicted histogram is claimed **exact** and
the fuzz oracle (:mod:`repro.verify.localitycheck`) holds it to that.
"""

from __future__ import annotations

import math
from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.cache.reuse import COLD
from repro.ir.affine import Affine
from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import enclosing_loops, iter_statements
from repro.exec.layout import MemoryLayout
from repro.obs import get_obs
from repro.locality.polysum import PolySumError, weighted_chain_count

__all__ = ["LocalityPrediction", "ReuseTerm", "predict_locality"]

#: Reuse-class slugs, in rough order of distance.
KINDS = ("intra", "temporal", "spatial", "group", "sequential", "cold")


@dataclass(frozen=True)
class ReuseTerm:
    """``count`` accesses predicted to reuse at stack ``distance`` lines."""

    count: int
    distance: int
    kind: str
    array: str
    sid: int
    slot: int
    carrier: str | None = None


@dataclass
class LocalityPrediction:
    """Predicted reuse-distance histogram and derived miss ratios."""

    program: str
    line: int
    accesses: int
    cold: int
    terms: tuple[ReuseTerm, ...]
    exact: bool

    def predicted_histogram(self) -> _Counter:
        """Distance -> count, with :data:`COLD` for first touches."""
        hist: _Counter = _Counter()
        if self.cold:
            hist[COLD] = self.cold
        for term in self.terms:
            hist[term.distance] += term.count
        return hist

    def hits_for_capacity(self, lines: int) -> int:
        """Accesses predicted to hit a fully-associative LRU cache."""
        return sum(t.count for t in self.terms if t.distance < lines)

    def misses_for_capacity(self, lines: int) -> int:
        return self.accesses - self.hits_for_capacity(lines)

    def hit_rate_for_capacity(self, lines: int, include_cold: bool = False) -> float:
        """Predicted FA-LRU hit rate; cold misses excluded by default.

        Degenerate traces (no accesses, or nothing but cold misses)
        report 1.0, matching :class:`repro.cache.reuse.ReuseProfile`.
        """
        denom = self.accesses if include_cold else self.accesses - self.cold
        if denom <= 0:
            return 1.0
        return self.hits_for_capacity(lines) / denom

    def miss_ratio_for_capacity(self, lines: int) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses_for_capacity(lines) / self.accesses

    def hit_rate_set_assoc(self, sets: int, assoc: int) -> float:
        """Predicted hit rate of a ``sets x assoc`` LRU cache.

        Uses the classic conflict model: an access at stack distance ``d``
        hits iff fewer than ``assoc`` of the ``d`` intervening lines map
        to its set — binomial in ``d`` with ``p = 1/sets`` (Poisson for
        large ``d``).
        """
        hits = 0.0
        for term in self.terms:
            hits += term.count * _hit_probability(term.distance, sets, assoc)
        denom = self.accesses - self.cold
        if denom <= 0:
            return 0.0
        return min(hits / denom, 1.0)

    def by_kind(self) -> dict[str, int]:
        out = {kind: 0 for kind in KINDS}
        for term in self.terms:
            out[term.kind] += term.count
        out["cold"] = self.cold
        return out


def _hit_probability(distance: int, sets: int, assoc: int) -> float:
    if distance < assoc:
        return 1.0
    if sets == 1:
        return 1.0 if distance < assoc else 0.0
    if distance <= 512:
        p = 1.0 / sets
        q = 1.0 - p
        prob = 0.0
        for i in range(assoc):
            prob += math.comb(distance, i) * p**i * q ** (distance - i)
        return prob
    lam = distance / sets
    if lam > 700:
        return 0.0
    prob = 0.0
    term = math.exp(-lam)
    for i in range(assoc):
        prob += term
        term *= lam / (i + 1)
    return prob


# ======================================================================
# Slot extraction
# ======================================================================


@dataclass
class _Slot:
    """One emitting (rank >= 1) reference occurrence."""

    sid: int
    slot: int  # index into stmt.refs (0 = write)
    pos: int  # stream position within the innermost body
    array: str
    subs: tuple[Affine, ...]
    chain: tuple[Loop, ...]
    addr: Affine  # byte address, params resolved; vars are loop indices
    coeffs: dict[str, int] = field(default_factory=dict)

    @property
    def varying(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    @property
    def group_key(self):
        """Same linear part + same chain => candidate RefGroup family."""
        return (self.array, self.addr.terms, tuple(id(l) for l in self.chain))

    @property
    def addr_key(self):
        return (self.array, self.addr.terms, self.addr.const)


def _collect_slots(
    program: Program, layout: MemoryLayout, env: Mapping[str, int]
) -> list[_Slot]:
    chains = enclosing_loops(program)
    slots: list[_Slot] = []
    body_pos: dict[tuple[int, ...], int] = {}
    for stmt in iter_statements(program):
        chain = chains[stmt.sid]
        key = tuple(id(l) for l in chain)
        pos = body_pos.get(key, 0)
        emitting = [(i + 1, r) for i, r in enumerate(stmt.reads) if r.rank]
        if stmt.lhs.rank:
            emitting.append((0, stmt.lhs))
        for slot_index, ref in emitting:
            addr = layout[ref.array].address_form(ref, env)
            chain_vars = {l.var for l in chain}
            coeffs = {n: c for n, c in addr.terms if n in chain_vars}
            if addr.names - chain_vars:
                # A subscript references a symbol we could not resolve;
                # treat the leftover as constant zero (defensive).
                addr = Affine.build(coeffs, addr.const)
            slots.append(
                _Slot(stmt.sid, slot_index, pos, ref.array, ref.subs, chain, addr, coeffs)
            )
            pos += 1
        body_pos[key] = pos
    return slots


def carried_modes(slot: _Slot, carrier_index: int) -> dict[str, str]:
    """Chain-count modes for reuse carried at ``carrier_index``: pairs of
    carrier iterations, once over the non-varying levels inside it."""
    chain = slot.chain
    modes = {chain[carrier_index].var: "pairs"}
    for loop in chain[carrier_index + 1 :]:
        if loop.var not in slot.coeffs:
            modes[loop.var] = "once"
    return modes


# ======================================================================
# Trip counts and footprints
# ======================================================================


class _NestModel:
    """Mean trips, footprints, and access counts for one program."""

    def __init__(self, program: Program, layout: MemoryLayout, env: dict[str, int], line: int):
        self.program = program
        self.layout = layout
        self.env = env
        self.line = line
        self.slots = _collect_slots(program, layout, env)
        self.trip: dict[int, int] = {}  # id(loop) -> mean trip count
        self.var_range: dict[int, tuple[int, int]] = {}  # id(loop) -> (lo, hi)
        self._resolve_trips(program.body, dict(env))
        self._foot_cache: dict[tuple[int, int], int] = {}

    # -- trips ---------------------------------------------------------
    def _resolve_trips(
        self,
        body: Iterable,
        mid_env: dict[str, int],
        ranges: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        ranges = {} if ranges is None else ranges
        for node in body:
            if not isinstance(node, Loop):
                continue
            lb = node.lb.partial_evaluate(mid_env)
            ub = node.ub.partial_evaluate(mid_env)
            if lb.is_constant() and ub.is_constant():
                trip = max((ub.const - lb.const + node.step) // node.step, 1)
                mid = (lb.const + ub.const) // 2
            else:  # unresolved symbol: assume a modest trip
                trip, mid = 8, 4
            self.trip[id(node)] = trip
            # Value range: a hull over the whole iteration space (params
            # only resolved), so triangular bounds are not pinned to the
            # midpoint of the enclosing loops.
            # Names without a range (unresolved symbols) assume 1..8.
            l_lo, l_hi = node.lb.partial_evaluate(self.env).interval(ranges, (1, 8))
            u_lo, u_hi = node.ub.partial_evaluate(self.env).interval(ranges, (1, 8))
            lo, hi = min(l_lo, u_lo), max(l_hi, u_hi)
            self.var_range[id(node)] = (lo, hi)
            inner_env = dict(mid_env)
            inner_env[node.var] = mid
            inner_ranges = dict(ranges)
            inner_ranges[node.var] = (lo, hi)
            self._resolve_trips(node.body, inner_env, inner_ranges)

    def array_lines(self, array: str) -> int:
        return max(1, -(-self.layout[array].total_bytes // self.line))

    def addr_span(self, slot: _Slot) -> tuple[int, int]:
        """Interval [lo, hi] of byte addresses the slot can touch."""
        lo = hi = slot.addr.const
        for loop in slot.chain:
            coeff = slot.coeffs.get(loop.var)
            if not coeff:
                continue
            v_lo, v_hi = self.var_range[id(loop)]
            lo += min(coeff * v_lo, coeff * v_hi)
            hi += max(coeff * v_lo, coeff * v_hi)
        return lo, hi

    def distinct_address_cap(self, slot: _Slot) -> int:
        """Upper bound on distinct addresses the slot touches.

        The address range divided by the gcd of the variable strides caps
        the reachable lattice; for coupled subscripts like ``B(I-J)`` it
        is far below the iteration count (diagonals repeat).
        """
        if not slot.coeffs:
            return 1
        lo, hi = self.addr_span(slot)
        step = math.gcd(*(abs(c) for c in slot.coeffs.values()))
        return (hi - lo) // max(step, 1) + 1

    # -- access counts -------------------------------------------------
    #: Iteration budget for the exact-enumeration fallback.
    _ENUM_LIMIT = 200_000

    def _enumerate_count(
        self, chain, modes: Mapping[str, str] | None = None
    ) -> int | None:
        """Ground-truth iteration count by walking the concrete ranges.

        Only used when polynomial summation declines a chain: a strided
        loop whose trip stays symbolic (unroll-and-jam of ``DO I=1,N,2``),
        or a range floor the compile step can neither prove nor clip.
        Bails out (None) past a fixed budget so suite-sized nests never
        pay O(trips^depth).
        """
        modes = modes or {}
        budget = self._ENUM_LIMIT
        env = dict(self.env)

        def rec(i: int) -> int | None:
            nonlocal budget
            if i == len(chain):
                return 1
            loop = chain[i]
            values = loop.iter_values(env)
            mode = modes.get(loop.var, "full")
            total = 0
            for j, value in enumerate(values):
                budget -= 1
                if budget < 0:
                    return None
                env[loop.var] = value
                below = rec(i + 1)
                env.pop(loop.var, None)
                if below is None:
                    return None
                if not (mode == "pairs" and j == 0):
                    total += below
                if mode == "once":
                    break
            return total

        return rec(0)

    def _count(self, chain, modes: Mapping[str, str]) -> int:
        """Weighted iteration count of ``chain`` under ``modes``.

        Closed form first, then exact enumeration, then a product of mean
        trips (``trip`` for full, ``trip - 1`` for pairs, 1 for once).
        """
        try:
            return weighted_chain_count(chain, self.env, modes)
        except PolySumError:
            exact = self._enumerate_count(chain, modes)
            if exact is not None:
                return exact
            count = 1
            for loop in chain:
                trip = self.trip[id(loop)]
                mode = modes.get(loop.var, "full")
                if mode == "pairs":
                    count *= max(trip - 1, 0)
                elif mode == "full":
                    count *= trip
            return count

    def accesses(self, slot: _Slot) -> int:
        return self._count(slot.chain, {})

    def carried_count(self, slot: _Slot, carrier_index: int) -> int:
        """Accesses whose previous same-address access is carried by the
        chain level at ``carrier_index`` (a non-varying level)."""
        return self._count(slot.chain, carried_modes(slot, carrier_index))

    # -- footprints ----------------------------------------------------
    @staticmethod
    def _merge_runs(active: list[tuple[int, int]]) -> tuple[int, int, list[tuple[int, int]]]:
        """Coalesce contiguous sweep axes (sorted by stride ascending).

        When the next stride equals the span of the run so far, the two
        axes sweep one contiguous region (column-major planes); merging
        them is what keeps line counts from double-counting run
        boundaries. Returns (stride, merged trip, unmerged axes).
        """
        stride, trip = active[0]
        rest: list[tuple[int, int]] = []
        for s, t in active[1:]:
            if s == stride * trip:
                trip *= t
            else:
                rest.append((s, t))
        return stride, trip, rest

    def _slot_lines(self, slot: _Slot, sweep: dict[str, int]) -> int:
        """Distinct lines ``slot`` touches sweeping ``sweep`` (var->trip)."""
        active = sorted(
            (abs(slot.coeffs[v]), t) for v, t in sweep.items() if slot.coeffs.get(v)
        )
        if not active:
            return 1
        stride, trip, rest = self._merge_runs(active)
        if stride >= self.line:
            lines = trip
        else:
            lines = min(trip, (trip * stride) // self.line + 1)
        for _, t in rest:
            lines *= t
        return min(lines, self.array_lines(slot.array))

    def run_shape(self, slot: _Slot) -> tuple[int, int]:
        """(stride, effective trip) of the slot's contiguous fast axis
        over its whole iteration space."""
        active = sorted(
            (abs(c), self.trip[id(l)])
            for l in slot.chain
            for v, c in ((l.var, slot.coeffs.get(l.var, 0)),)
            if c
        )
        if not active:
            return 0, 1
        stride, trip, _ = self._merge_runs(active)
        return stride, trip

    def _sweep_groups(self, slots: list[_Slot], sweep_of) -> int:
        """Sum of per-slot line footprints, deduplicating obvious aliases
        (same array + same |stride| multiset over the swept vars)."""
        total = 0
        seen: set = set()
        for s in slots:
            sweep = sweep_of(s)
            sig = (s.array, tuple(sorted(abs(s.coeffs[v]) for v in sweep if s.coeffs.get(v))))
            if sig in seen:
                continue
            seen.add(sig)
            total += self._slot_lines(s, sweep)
        return max(total, 1)

    def window(self, loop: Loop, iters: int = 1) -> int:
        """Distinct lines touched during ``iters`` iterations of ``loop``
        (everything nested deeper sweeps fully)."""
        key = (id(loop), iters)
        cached = self._foot_cache.get(key)
        if cached is not None:
            return cached
        members = [s for s in self.slots if any(l is loop for l in s.chain)]

        def sweep_of(s: _Slot) -> dict[str, int]:
            depth = next(i for i, l in enumerate(s.chain) if l is loop)
            sweep = {l.var: self.trip[id(l)] for l in s.chain[depth + 1 :]}
            if iters > 1:
                sweep[loop.var] = min(iters, self.trip[id(loop)])
            return sweep

        result = self._sweep_groups(members, sweep_of)
        self._foot_cache[key] = result
        return result

    def subtree_footprint(self, node) -> int:
        """Distinct lines one full execution of ``node`` touches."""
        if isinstance(node, Loop):
            return self.window(node, iters=self.trip[id(node)])
        sids = {node.sid} if isinstance(node, Assign) else set()
        members = [s for s in self.slots if s.sid in sids]
        return self._sweep_groups(members, lambda s: {}) if members else 0


# ======================================================================
# The general (model) path
# ======================================================================


def _best_draft(
    model: _NestModel, member: _Slot, others: list[_Slot]
) -> list[tuple[float, int, _Slot]] | None:
    """Drafting pieces of ``member`` behind its family peers.

    A member reuses a line another member touched earlier if some
    iteration-shift vector ``k`` (peer running ``k`` iterations behind,
    outermost loop first) puts the peer's address within a line of the
    member's: ``|off| < line`` for ``off = Δconst + Σ coeff_v * step_v *
    k_v``. This single search covers group-temporal reuse (exact address
    match, e.g. ``U(I,J-1)`` two inner iterations behind ``U(I,J+1)``)
    *and* group-spatial reuse (same line, different element —
    ``U(I-1,J)`` behind ``U(I,J+1)`` one inner iteration earlier when
    rows are contiguous). The shift is searched deepest-loop-first per
    peer, so each peer contributes its cheapest window; a shift of zero
    is the same-instance case and only valid against peers earlier in
    stream order.

    A nonzero ``off`` only shares a line on some alignments: the peer's
    byte sits at ``a - off`` when the member's sits at ``a``, so the
    draft covers alignments with ``0 <= a - off < line``. When the
    member slides by sub-line strides the alignments cycle uniformly
    through multiples of ``gcd(line, strides)``; each alignment takes
    the *smallest* distance among the candidates covering it. Returns
    pieces ``(fraction, distance, peer)`` sorted by distance (fractions
    sum to the covered share), or None when no shift works — that member
    leads its group and pays the line misses.
    """
    chain = member.chain
    line = model.line
    caps = [min(3, max(model.trip[id(l)] - 1, 0)) for l in chain]
    coeffs = [member.coeffs.get(l.var, 0) * l.step for l in chain]

    def min_offset(idx: int, target: int) -> int:
        """Signed offset of min |.|: target + Σ_{e>=idx} coeff_e * k_e,
        |k_e| <= caps[e]."""
        if idx == len(chain):
            return target
        best = None
        for k in range(-caps[idx], caps[idx] + 1):
            got = min_offset(idx + 1, target + coeffs[idx] * k)
            if best is None or abs(got) < abs(best):
                best = got
            if best == 0:
                break
        return best if best is not None else target

    candidates: list[tuple[int, int, _Slot]] = []  # (off, distance, peer)
    for other in others:
        if other is member:
            continue
        delta = member.addr.const - other.addr.const
        if other.pos < member.pos and abs(delta) < line:
            candidates.append((delta, 1, other))
        for depth in range(len(chain) - 1, -1, -1):
            found = None
            for iters in range(1, caps[depth] + 1):
                off = min_offset(depth + 1, delta + coeffs[depth] * iters)
                if abs(off) < line:
                    found = (off, model.window(chain[depth], iters=iters), other)
                    break
            if found is not None:
                candidates.append(found)
                break  # shallower depths only give larger windows
    if not candidates:
        return None

    grain = math.gcd(line, *[abs(c) for c in coeffs if c]) if any(coeffs) else line
    if grain >= line:
        # Alignment is fixed (strides are line multiples) but the base
        # alignment is unknown; treat any in-line offset as covering.
        off, distance, peer = min(candidates, key=lambda c: c[1])
        return [(1.0, distance, peer)]

    classes = range(0, line, grain)
    best_for: dict[int, tuple[int, _Slot]] = {}
    for off, distance, peer in candidates:
        for a in classes:
            if 0 <= a - off < line:
                held = best_for.get(a)
                if held is None or distance < held[0]:
                    best_for[a] = (distance, peer)
    if not best_for:
        return None
    pieces: dict[tuple[int, int], list] = {}
    for distance, peer in best_for.values():
        entry = pieces.setdefault((distance, id(peer)), [0, peer])
        entry[0] += 1
    total = len(classes)
    return sorted(
        ((count / total, distance, peer)
         for (distance, _), (count, peer) in pieces.items()),
        key=lambda piece: piece[1],
    )


def _group_overlap(model: _NestModel, member: _Slot, ahead: _Slot) -> float:
    """Fraction of ``member``'s address span its predecessor also covers.

    RefGroup members with the same linear part but large constant offsets
    (``C(I+J-2)`` vs ``C(I+J+1)`` on tiny trip counts) only draft where
    their footprints intersect; the rest of the member's accesses are
    line leaders. Measured at line granularity so adjacent-line sharing
    still counts.
    """
    m_lo, m_hi = model.addr_span(member)
    a_lo, a_hi = model.addr_span(ahead)
    span = m_hi - m_lo + model.line
    overlap = min(m_hi, a_hi) - max(m_lo, a_lo) + model.line
    if span <= 0:
        return 0.0
    return max(0.0, min(1.0, overlap / span))


def _sequential_fraction(model: _NestModel, slot: _Slot, prev: _Slot) -> float:
    """Fraction of ``slot``'s line visits expected to land on lines the
    earlier toucher ``prev`` actually populated.

    Span overlap alone overstates reuse when the earlier slot walked the
    array sparsely (a 120-byte stride touches ~7% of the lines it spans);
    scale by the density of prev's touched lines inside its own span.
    """
    m_lo, m_hi = model.addr_span(slot)
    p_lo, p_hi = model.addr_span(prev)
    m_span = m_hi - m_lo + model.line
    overlap = min(m_hi, p_hi) - max(m_lo, p_lo) + model.line
    if overlap <= 0 or m_span <= 0:
        return 0.0
    p_span = p_hi - p_lo + model.line
    p_lines = model._slot_lines(
        prev, {l.var: model.trip[id(l)] for l in prev.chain}
    )
    density = min(1.0, p_lines * model.line / p_span)
    return max(0.0, min(1.0, (overlap / m_span) * density))


def _body_alias(
    model: _NestModel, slot: _Slot, touched_order: dict[str, list[_Slot]]
) -> tuple[float, int] | None:
    """Same-body alias estimate: fraction of ``slot``'s line visits that
    land on lines an earlier same-array reference with a *different*
    linear part populated (``A(I-J+4,J+1)`` catching ``A(I+1,J+2)`` one
    outer iteration later). Returns (fraction, distance) or None.
    """
    for prev in reversed(touched_order.get(slot.array, [])):
        if tuple(id(l) for l in prev.chain) != tuple(id(l) for l in slot.chain):
            continue
        if prev.group_key == slot.group_key:
            continue  # same family: handled by the group terms
        coeffs = [abs(c) for c in slot.coeffs.values()]
        coeffs += [abs(c) for c in prev.coeffs.values()]
        if coeffs:
            g = math.gcd(*coeffs)
            residual = (slot.addr.const - prev.addr.const) % g
            if min(residual, g - residual) >= model.line:
                continue  # incompatible address lattices: never alias
        frac = _sequential_fraction(model, slot, prev)
        if frac <= 0.0:
            continue
        loop = slot.chain[0] if slot.chain else None
        distance = model.window(loop, 1) if loop is not None else 1
        return frac, distance
    return None


def _nearest_earlier_toucher(
    model: _NestModel, slot: _Slot, touched_order: dict[str, list[_Slot]]
) -> tuple[int, _Slot] | None:
    """Sequential-reuse distance (and the earlier slot providing it):
    footprint between this slot and the nearest earlier sibling subtree
    touching the same array."""
    earlier = touched_order.get(slot.array, ())
    for prev in reversed(earlier):
        # Common chain prefix; the reuse happens across the first level
        # where the two slots diverge into sibling subtrees.
        k = 0
        while (
            k < len(prev.chain)
            and k < len(slot.chain)
            and prev.chain[k] is slot.chain[k]
        ):
            k += 1
        prev_top = prev.chain[k] if k < len(prev.chain) else None
        cur_top = slot.chain[k] if k < len(slot.chain) else None
        if prev_top is cur_top:
            continue  # same subtree: handled by intra/group/temporal terms
        scope = slot.chain[k - 1].body if k else model.program.body
        distance = 0
        counting = False
        for node in scope:
            if node is cur_top or (cur_top is None and isinstance(node, Assign) and node.sid == slot.sid):
                break
            if node is prev_top or (
                prev_top is None and isinstance(node, Assign) and node.sid == prev.sid
            ):
                counting = True
            if counting:
                distance += model.subtree_footprint(node)
        if counting:
            return distance, prev
    return None


def _model_terms(
    model: _NestModel,
) -> tuple[list[ReuseTerm], int, int]:
    """The general prediction path: classify every slot's accesses."""
    terms: list[ReuseTerm] = []
    cold_total = 0
    access_total = 0
    claimed: dict[str, int] = {}
    touched_order: dict[str, list[_Slot]] = {}

    # Representatives: first slot (stream order) of each identical-address
    # group within one body; later slots always hit at a tiny distance.
    slots = model.slots
    by_body: dict = {}
    for s in slots:
        by_body.setdefault((tuple(id(l) for l in s.chain),), []).append(s)
    reps: list[_Slot] = []
    dup_terms: list[tuple[_Slot, int, int]] = []
    for body_slots in by_body.values():
        body_slots.sort(key=lambda s: s.pos)
        groups = len({s.addr_key for s in body_slots})
        first: dict = {}
        for s in body_slots:
            if s.addr_key in first:
                dup_terms.append((s, model.accesses(s), max(groups - 1, 1)))
            else:
                first[s.addr_key] = s
                reps.append(s)

    for s, count, distance in dup_terms:
        access_total += count
        terms.append(
            ReuseTerm(count, distance, "intra", s.array, s.sid, s.slot)
        )

    # RefGroup families: representatives sharing (array, linear part,
    # chain). Each member searches for the cheapest peer to draft
    # behind (group-temporal or group-spatial); members for which no
    # iteration shift reaches a peer's line lead the group and pay the
    # line misses.
    families: dict = {}
    for s in reps:
        families.setdefault(s.group_key, []).append(s)
    draft: dict[int, list[tuple[float, int, _Slot]] | None] = {}
    for members in families.values():
        members.sort(key=lambda s: s.pos)
        for s in members:
            draft[id(s)] = (
                _best_draft(model, s, members)
                if len(members) > 1 and s.coeffs
                else None
            )

    for s in reps:
        total = model.accesses(s)
        access_total += total
        if total == 0:
            continue
        # Drafting pieces, each scaled by how much of the member's span
        # its peer actually covers: (fraction, distance), by distance.
        pieces = [
            (frac * _group_overlap(model, s, peer), distance)
            for frac, distance, peer in (draft.get(id(s)) or ())
        ]
        pieces = [(frac, distance) for frac, distance in pieces if frac > 0]

        def emit(count: int, distance: int, kind: str, carrier: str | None = None):
            if count <= 0:
                return
            base = count
            for frac, d in pieces:
                if d >= distance or count <= 0:
                    continue
                near = min(round(base * frac), count)
                if near:
                    terms.append(
                        ReuseTerm(near, d, "group", s.array, s.sid, s.slot, carrier)
                    )
                    count -= near
            if count > 0:
                terms.append(ReuseTerm(count, distance, kind, s.array, s.sid, s.slot, carrier))

        remaining = total
        # Spatial refinement inputs: the smallest-stride varying level.
        f_var = min(s.coeffs, key=lambda v: abs(s.coeffs[v])) if s.coeffs else None
        f_loop = next((l for l in s.chain if l.var == f_var), None)
        f_stride = abs(s.coeffs[f_var]) if f_var else 0
        elems_per_line = model.line // f_stride if 0 < f_stride < model.line else 1

        # Self-temporal reuse carried by non-varying levels.
        for ci in range(len(s.chain) - 1, -1, -1):
            loop = s.chain[ci]
            if loop.var in s.coeffs:
                continue
            count = min(model.carried_count(s, ci), remaining)
            if count <= 0:
                continue
            far = count
            if (
                elems_per_line > 1
                and f_loop is not None
                and any(l is f_loop for l in s.chain[ci + 1 :])
            ):
                # The fast axis sweeps inside the carrier window, so the
                # line is re-touched by the spatial neighbour just before
                # all but the line-head element repeats.
                far = -(-count // elems_per_line)
                emit(count - far, model.window(f_loop), "temporal", carrier=loop.var)
            emit(far, model.window(loop), "temporal", carrier=loop.var)
            remaining -= count

        # Coupled-subscript (diagonal) self-temporal reuse: when the
        # address map is not injective — ``B(I-J)`` walks the same
        # diagonal values for many (I, J) pairs — the accesses beyond the
        # reachable-address count are revisits, one sweep of the
        # shallowest varying loop apart.
        if remaining > 0 and s.coeffs:
            cap = model.distinct_address_cap(s)
            if remaining > cap:
                d_loop = next(l for l in s.chain if l.var in s.coeffs)
                emit(remaining - cap, model.window(d_loop), "temporal", carrier=d_loop.var)
                remaining = cap

        # Self-spatial reuse along the smallest-stride varying level,
        # with contiguous outer axes merged into the run.
        if f_loop is not None and remaining > 0:
            _, trip = model.run_shape(s)
            if f_stride < model.line and trip > 1:
                lines_per_run = min(trip, (trip * f_stride) // model.line + 1)
                spatial = remaining - round(remaining * lines_per_run / trip)
                spatial = max(0, min(spatial, remaining))
                if spatial:
                    emit(spatial, model.window(f_loop), "spatial", carrier=f_var)
                    remaining -= spatial

        if remaining <= 0:
            touched_order.setdefault(s.array, []).append(s)
            continue

        # Line-leader visits: group draft (where the member's footprint
        # overlaps its predecessor's), then sequential reuse or cold.
        if pieces:
            base = remaining
            for frac, d in pieces:
                near = min(round(base * frac), remaining)
                if near:
                    terms.append(
                        ReuseTerm(near, d, "group", s.array, s.sid, s.slot)
                    )
                    remaining -= near
        if remaining > 0:
            alias = _body_alias(model, s, touched_order)
            if alias is not None:
                alias_frac, alias_d = alias
                shared = round(remaining * alias_frac)
                if shared:
                    terms.append(
                        ReuseTerm(shared, max(alias_d, 1), "group", s.array, s.sid, s.slot)
                    )
                remaining -= shared
        if remaining > 0:
            seq = _nearest_earlier_toucher(model, s, touched_order)
            if seq is not None:
                seq_d, seq_prev = seq
                shared = round(remaining * _sequential_fraction(model, s, seq_prev))
                if shared:
                    terms.append(
                        ReuseTerm(shared, max(seq_d, 1), "sequential", s.array, s.sid, s.slot)
                    )
                remaining -= shared
            if remaining > 0:
                limit = model.array_lines(s.array)
                used = claimed.get(s.array, 0)
                cold = min(remaining, max(limit - used, 0))
                claimed[s.array] = used + cold
                cold_total += cold
                leftover = remaining - cold
                if leftover:
                    # More visits than array lines: the surplus re-walks
                    # the array, one whole-program footprint apart.
                    whole = sum(model.subtree_footprint(n) for n in model.program.body)
                    terms.append(
                        ReuseTerm(leftover, max(whole, 1), "sequential", s.array, s.sid, s.slot)
                    )
        touched_order.setdefault(s.array, []).append(s)

    return terms, cold_total, access_total


# ======================================================================
# The exact path
# ======================================================================


def _exact_terms(
    model: _NestModel,
) -> tuple[list[ReuseTerm], int, int] | None:
    """Exact histogram on the restricted class, or None when out of class.

    Class: a single top-level perfect nest, constant rectangular bounds,
    steps of +-1, line == element size everywhere, and every emitting
    slot either loop-invariant or iteration-injective (one unit-coeff
    variable per dimension, every chain variable covering exactly one
    dimension); same-array slots must use identical subscripts.
    """
    program, env, line = model.program, model.env, model.line
    if len(program.body) != 1 or not isinstance(program.body[0], Loop):
        return None
    top = program.body[0]
    if not top.is_perfect_nest():
        return None
    chain = top.perfect_nest_loops()
    body = chain[-1].body
    if not all(isinstance(n, Assign) for n in body):
        return None
    if any(decl.elem_size != line for decl in program.arrays):
        return None
    trips = []
    for loop in chain:
        if loop.step not in (1, -1):
            return None
        lb = loop.lb.partial_evaluate(env)
        ub = loop.ub.partial_evaluate(env)
        if not (lb.is_constant() and ub.is_constant()):
            return None
        if (ub.const - lb.const) * loop.step < 0:
            trips.append(0)
        else:
            trips.append(abs(ub.const - lb.const) + 1)
    n_iter = math.prod(trips)
    chain_vars = {l.var for l in chain}

    slots = model.slots
    by_array: dict[str, tuple] = {}
    for s in slots:
        key = tuple(s.subs)
        if by_array.setdefault(s.array, key) != key:
            return None  # same array, different subscripts: out of class
        if not s.coeffs:
            continue
        if s.varying != chain_vars:
            return None
        seen_vars: set[str] = set()
        for sub in s.subs:
            if len(sub.terms) > 1:
                return None
            for name, coeff in sub.terms:
                if abs(coeff) != 1 or name in seen_vars:
                    return None
                seen_vars.add(name)
        if seen_vars != chain_vars:
            return None

    if n_iter == 0:
        return [], 0, 0

    # Stream positions and identical-address groups of the (one) body.
    positions = sorted(slots, key=lambda s: s.pos)
    group_ids: dict = {}
    for s in positions:
        group_ids.setdefault(s.addr_key, len(group_ids))
    occupants: dict[int, list[int]] = {}
    for s in positions:
        occupants.setdefault(group_ids[s.addr_key], []).append(s.pos)
    pos_group = {s.pos: group_ids[s.addr_key] for s in positions}
    slot_at = {s.pos: s for s in positions}
    varying = {g: bool(slot_at[poss[0]].coeffs) for g, poss in occupants.items()}

    def between(lo: int, hi: int) -> int:
        return len({pos_group[p] for p in range(lo + 1, hi)})

    terms: list[ReuseTerm] = []
    cold = 0
    accesses = n_iter * len(positions)
    for g, poss in occupants.items():
        rep = slot_at[poss[0]]
        if varying[g]:
            cold += n_iter
        else:
            cold += 1
        for prev, cur in zip(poss, poss[1:]):
            terms.append(
                ReuseTerm(
                    n_iter, between(prev, cur), "intra", rep.array, rep.sid, rep.slot
                )
            )
        if not varying[g] and n_iter > 1:
            # Wrap window: tail of the previous instance + head of this
            # one; a varying group present in both halves contributes two
            # distinct lines (different instances, different addresses).
            last, first = poss[-1], poss[0]
            wrap = 0
            for other, other_poss in occupants.items():
                if other == g:
                    continue
                after = any(p > last for p in other_poss)
                before = any(p < first for p in other_poss)
                if varying[other]:
                    wrap += int(after) + int(before)
                else:
                    wrap += int(after or before)
            terms.append(
                ReuseTerm(n_iter - 1, wrap, "temporal", rep.array, rep.sid, rep.slot)
            )
    return terms, cold, accesses


# ======================================================================
# Entry point
# ======================================================================


def predict_locality(
    program: Program,
    line: int = 128,
) -> LocalityPrediction:
    """Predict the reuse-distance histogram of ``program`` analytically.

    ``line`` is the cache-line size in bytes (power of two). The returned
    prediction is flagged ``exact`` when the program falls in the class
    where the histogram is provably exact (see :func:`_exact_terms`);
    otherwise distances are model estimates and only the total mass is
    guaranteed (``sum(histogram) == accesses``).
    """
    if line & (line - 1):
        raise ValueError("line size must be a power of two")
    obs = get_obs()
    env = program.param_env
    with obs.span("locality.predict", program=program.name, line=line):
        layout = MemoryLayout.for_program(program)
        model = _NestModel(program, layout, env, line)
        exact = _exact_terms(model)
        if exact is not None:
            terms, cold, accesses = exact
            is_exact = True
        else:
            terms, cold, accesses = _model_terms(model)
            is_exact = False
        prediction = LocalityPrediction(
            program.name, line, accesses, cold, tuple(terms), is_exact
        )
    metrics = obs.metrics
    if metrics.enabled:
        metrics.counter("locality.predictions").inc()
        metrics.counter("locality.slots").inc(len(model.slots))
        for kind, count in prediction.by_kind().items():
            if count:
                metrics.counter(f"locality.accesses.{kind}").inc(count)
    obs.remark(
        "locality",
        "analysis",
        f"{program.name}: {accesses} accesses, {cold} cold, "
        f"{'exact' if is_exact else 'model'} histogram "
        f"({len(model.slots)} slots, line={line})",
        path="exact" if is_exact else "model",
        accesses=accesses,
        cold=cold,
    )
    return prediction
