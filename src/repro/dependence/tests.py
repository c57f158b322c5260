"""Data dependence tests for affine array references.

Implements practical dependence testing in the style of Goff, Kennedy &
Tseng [GKT91], the analysis the paper builds on:

* **ZIV** and **GCD** screening per subscript dimension;
* **strong-SIV distance pinning**: dimensions of the form
  ``a*i + c1 = a*i' + c2`` fix the dependence distance exactly, producing
  the paper's hybrid *distance*/direction vectors;
* a **closed form for separable pairs**: when both references share all
  their loops, every loop steps by +-1, no bound names a loop of the
  chain, and every subscript difference is zero or strong SIV (so every
  loop it reads is pinned), the answer is one vector, the pinned
  distances with '*' elsewhere, or none when ``_strengthen`` refutes the
  per-loop span constraints;
* **Fourier-Motzkin feasibility** for every other pair (one-sided,
  strided, triangular, coupled, symbolic offsets) over the exact
  iteration-space constraints and the remaining direction-vector
  hierarchy, handling triangular bounds precisely and symbolic bounds
  conservatively. It is also the closed form's oracle in the tests.

Distances and directions are expressed in *loop index value* space
(divided by the step, so components count iterations): this is the space
in which permutation legality must be judged — normalizing lower bounds
away would silently skew vectors for nests whose inner bounds depend on
outer indices.

The entry point is :func:`analyze_ref_pair`, which returns the set of
feasible hybrid vectors for ``B - A`` over the common loops.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from repro.ir.affine import Affine
from repro.ir.expr import Ref
from repro.ir.nodes import Loop
from repro.dependence.vector import DIR_EQ, DIR_GT, DIR_LT, DIR_STAR, DepVector
from repro.obs import get_obs

__all__ = ["analyze_ref_pair", "MAX_VECTORS", "recording_kinds", "replay_kinds"]

#: Safety valve: beyond this many feasible vectors the result collapses to
#: a single all-'*' vector (fully conservative).
MAX_VECTORS = 81

#: Pair-test memo: the result depends only on the two references and the
#: canonical (var, lb, ub, step) chains, all of which are frozen values.
#: Backed by the shared :class:`repro.model.memo.MemoCache` layer (LRU
#: eviction + hit/miss counters); created lazily because importing
#: ``repro.model`` from here at module scope would close an import cycle
#: (model.nest -> dependence.pairs -> dependence.tests).
_PAIR_CACHE_CAP = 50_000
_pair_cache_singleton = None


def _pair_cache():
    global _pair_cache_singleton
    if _pair_cache_singleton is None:
        from repro.model.memo import MemoCache

        _pair_cache_singleton = MemoCache("dep.cache", cap=_PAIR_CACHE_CAP)
    return _pair_cache_singleton


def __getattr__(name: str):
    # PEP 562: `from repro.dependence.tests import _PAIR_CACHE` resolves
    # to the live singleton even before the first pair test ran.
    if name == "_PAIR_CACHE":
        return _pair_cache()
    raise AttributeError(name)

#: Constraint-count cap per elimination step; beyond it the FME test
#: gives up and reports "feasible" (fully conservative).
_FME_CONSTRAINT_CAP = 400


# ----------------------------------------------------------------------
# Rational Fourier-Motzkin feasibility
# ----------------------------------------------------------------------
def _fme_feasible(constraints: list[Affine], variables: set[str]) -> bool:
    """Rational Fourier-Motzkin feasibility of ``form >= 0`` constraints.

    Eliminates the loop variables in ``variables``; any other names
    (symbolic problem sizes) ride along as opaque constants.
    Infeasibility is reported only from symbol-free constant
    contradictions, so the answer is conservative both for symbolic sizes
    and for rational-vs-integer gaps (with a GCD tightening that recovers
    most of the latter).
    """
    current = _strengthen(constraints)
    if current is None:
        return False
    remaining = [v for v in variables if any(c.coeff(v) for c in current)]
    # Eliminate low-occurrence variables first to limit growth.
    remaining.sort(key=lambda v: sum(1 for c in current if c.coeff(v)))
    for var in remaining:
        lowers = []  # coeff > 0: a*v + f >= 0  =>  v >= -f/a
        uppers = []  # coeff < 0: -b*v + g >= 0 =>  v <= g/b
        rest = []
        for con in current:
            coeff = con.coeff(var)
            if coeff > 0:
                lowers.append((coeff, con - Affine.var(var, coeff)))
            elif coeff < 0:
                uppers.append((-coeff, con - Affine.var(var, coeff)))
            else:
                rest.append(con)
        new = rest
        for a, low in lowers:  # v >= -low/a
            for b, up in uppers:  # v <= up/b
                new.append(low * b + up * a)
        if len(new) > _FME_CONSTRAINT_CAP:
            return True  # give up, conservatively feasible
        strengthened = _strengthen(new)
        if strengthened is None:
            return False
        current = strengthened
    return True


def _strengthen(constraints: list[Affine]) -> list[Affine] | None:
    """Normalize, dedupe, and check constant constraints.

    Each ``form >= 0`` is divided by the GCD of its variable coefficients
    with the constant floored — valid for integer-valued variables and
    strictly stronger. Returns None when a symbol-free constraint is a
    plain contradiction.
    """
    best: dict[tuple, int] = {}
    for con in constraints:
        if not con.terms:
            if con.const < 0:
                return None
            continue
        g = 0
        for _, coeff in con.terms:
            g = gcd(g, abs(coeff))
        terms = tuple((n, c // g) for n, c in con.terms)
        const = con.const // g  # floor division: integer tightening
        if terms not in best or const < best[terms]:
            best[terms] = const
    # A pair f + c1 >= 0 and -f + c2 >= 0 with c1 + c2 < 0 is infeasible
    # even when f contains symbols.
    for terms, const in best.items():
        negated = tuple((n, -c) for n, c in terms)
        if negated in best and const + best[negated] < 0:
            return None
    return [Affine(terms, const) for terms, const in best.items()]


# ----------------------------------------------------------------------
# Per-side loop views
# ----------------------------------------------------------------------
@dataclass
class _SideLoop:
    """One loop as seen from one side of the reference pair."""

    var: str  # original index name
    value: str  # renamed value variable for this side
    step: int
    lb_res: Affine  # bounds with outer vars renamed to this side
    ub_res: Affine
    upper: int | None  # trip - 1 when statically known
    empty: bool  # definitely zero-trip
    aux: str | None  # auxiliary counter name when |step| != 1


def _side_chain(
    chain: Sequence[Loop], prefix: str, env: dict[str, Affine]
) -> list[_SideLoop]:
    """Rename each loop's index to a side-local value variable."""
    out: list[_SideLoop] = []
    for loop in chain:
        value = f"{prefix}{loop.var}"
        lb = loop.lb
        ub = loop.ub
        for name in list(lb.names):
            if name in env:
                lb = lb.substitute(name, env[name])
        for name in list(ub.names):
            if name in env:
                ub = ub.substitute(name, env[name])
        env[loop.var] = Affine.var(value)
        span = ub - lb
        upper: int | None = None
        empty = False
        if span.is_constant():
            trip = (span.const + loop.step) // loop.step
            if trip <= 0:
                empty = True
                upper = 0
            else:
                upper = trip - 1
        aux = f"{value}#t" if abs(loop.step) != 1 else None
        out.append(_SideLoop(loop.var, value, loop.step, lb, ub, upper, empty, aux))
    return out


def _rename_ref(ref: Ref, env: Mapping[str, Affine]) -> list[Affine]:
    subs = []
    for sub in ref.subs:
        for name in list(sub.names):
            if name in env:
                sub = sub.substitute(name, env[name])
        subs.append(sub)
    return subs


def _bound_constraints(side: _SideLoop) -> list[Affine]:
    """``form >= 0`` constraints confining the loop's value variable."""
    v = Affine.var(side.value)
    if side.step > 0:
        cons = [v - side.lb_res, side.ub_res - v]
    else:
        cons = [side.lb_res - v, v - side.ub_res]
    if side.aux is not None:
        t = Affine.var(side.aux)
        # v = lb + step * t with t >= 0 (exact stride membership).
        cons.append(t)
        eq = v - side.lb_res - t * side.step
        cons.append(eq)
        cons.append(-eq)
    return cons


# ----------------------------------------------------------------------
# The pair test
# ----------------------------------------------------------------------
def _chain_key(chain: Sequence[Loop]) -> tuple:
    """Canonical per-loop signature: everything the pair test reads.

    Bodies are irrelevant — only the index variable, bounds, and step of
    each enclosing loop enter the constraint system. Names outside the
    chains are opaque symbols on every path, so two call sites with equal
    keys are indistinguishable to the analysis.
    """
    return tuple((loop.var, loop.lb, loop.ub, loop.step) for loop in chain)


#: The totals of the innermost :func:`recording_kinds` block.
_KIND_LOG: "ContextVar[Counter[str] | None]" = ContextVar(
    "repro_dep_kinds", default=None
)


@contextmanager
def recording_kinds():
    """Total the ``dep.*`` kind counter bumps of every pair analysed in
    the block, cached or not, and whether or not observation is on.

    Yields a ``Counter`` of name -> amount; a cache above the pair cache
    (``model.nestinfo.cache``) stores its items and hands them to
    :func:`replay_kinds` on a hit. Nested blocks also count toward the
    enclosing one.
    """
    totals: Counter[str] = Counter()
    token = _KIND_LOG.set(totals)
    try:
        yield totals
    finally:
        _KIND_LOG.reset(token)
        outer = _KIND_LOG.get()
        if outer is not None:
            outer.update(totals)


def replay_kinds(events) -> None:
    """Bump recorded ``(name, amount)`` kind counters in the active
    context, and in the enclosing :func:`recording_kinds` block if any."""
    log = _KIND_LOG.get()
    obs = get_obs()
    metrics = obs.metrics if obs.enabled else None
    for name, amount in events:
        if log is not None:
            log[name] += amount
        if metrics is not None:
            metrics.counter(name).inc(amount)


class _KindRecorder:
    """Metrics-registry shim capturing counter bumps for cache replay."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[tuple[str, int]] = []

    def counter(self, name: str) -> "_RecCounter":
        return _RecCounter(self.events, name)


class _RecCounter:
    __slots__ = ("_events", "_name")

    def __init__(self, events: list, name: str):
        self._events = events
        self._name = name

    def inc(self, amount: int = 1) -> None:
        self._events.append((self._name, amount))


def analyze_ref_pair(
    ref_a: Ref,
    ref_b: Ref,
    common: Sequence[Loop],
    only_a: Sequence[Loop] = (),
    only_b: Sequence[Loop] = (),
) -> list[DepVector]:
    """Feasible hybrid dependence vectors for instance(B) - instance(A).

    ``common`` are the loops enclosing both references (outermost first);
    ``only_a``/``only_b`` the additional loops enclosing just one side
    (treated as free variables). Returns an empty list when the references
    are proven independent; components are exact int *iteration* distances
    where the strong-SIV pattern pins them, directions otherwise, ``'*'``
    for loops the subscripts do not constrain.

    The trivial all-zero vector (same instance, same access) *is* included
    when feasible; callers drop it for identical occurrences.

    Results are memoized on the canonical (refs, chains) key. A cache hit
    replays the recorded ``dep.*`` kind counters, so observability output
    is identical to an uncached run; ``dep.cache.hits`` / ``.misses``
    report the cache's own effectiveness.
    """
    key = (
        ref_a,
        ref_b,
        _chain_key(common),
        _chain_key(only_a),
        _chain_key(only_b),
    )
    cache = _pair_cache()
    cached = cache.get(key)  # the cache emits dep.cache.hits/misses
    if cached is not None:
        vectors, events = cached
        replay_kinds(events)
        return list(vectors)
    recorder = _KindRecorder()
    vectors = _analyze_ref_pair_impl(
        ref_a, ref_b, common, only_a, only_b, recorder
    )
    cache.put(key, (tuple(vectors), tuple(recorder.events)))
    replay_kinds(recorder.events)
    return vectors


def _analyze_ref_pair_impl(
    ref_a: Ref,
    ref_b: Ref,
    common: Sequence[Loop],
    only_a: Sequence[Loop],
    only_b: Sequence[Loop],
    metrics,
) -> list[DepVector]:
    system = _pair_system(ref_a, ref_b, common, only_a, only_b, metrics)
    if isinstance(system, list):
        return system
    vectors = _closed_form_vectors(system)
    if vectors is None:
        return _fme_vectors(system)
    metrics.counter("dep.pairs.closed_form").inc()
    return vectors


@dataclass
class _PairSystem:
    """A screened pair with its strong-SIV distances pinned.

    Holds what both answers read: the closed form for separable pairs
    (:func:`_closed_form_vectors`) and FME for the rest
    (:func:`_fme_vectors`).
    """

    sides_a: list[_SideLoop]  # the common loops, side A
    all_sides: list[_SideLoop]
    diffs: list[Affine]  # subscript differences B - A, each == 0
    values_a: list[str]
    values_b: list[str]
    steps: list[int]
    variables: set[str]  # every loop value and stride counter
    pinned: dict[int, int]  # common level -> iteration distance
    separable: bool  # every diff is zero or strong SIV on a pinned level


def _pair_system(
    ref_a: Ref,
    ref_b: Ref,
    common: Sequence[Loop],
    only_a: Sequence[Loop],
    only_b: Sequence[Loop],
    metrics,
) -> "_PairSystem | list[DepVector]":
    """Rename, screen and pin; a list when screening already decides."""
    if ref_a.array != ref_b.array:
        return []
    if ref_a.rank != ref_b.rank:
        # Cannot relate the layouts; be conservative.
        return [DepVector((DIR_STAR,) * len(common))]

    env_a: dict[str, Affine] = {}
    side_common_a = _side_chain(common, "a.", env_a)
    env_b: dict[str, Affine] = {}
    side_common_b = _side_chain(common, "b.", env_b)
    side_only_a = _side_chain(only_a, "fa.", env_a)
    side_only_b = _side_chain(only_b, "fb.", env_b)
    all_sides = side_common_a + side_common_b + side_only_a + side_only_b

    if any(side.empty for side in all_sides):
        return []

    subs_a = _rename_ref(ref_a, env_a)
    subs_b = _rename_ref(ref_b, env_b)
    diffs = [sb - sa for sa, sb in zip(subs_a, subs_b)]

    values_a = [side.value for side in side_common_a]
    values_b = [side.value for side in side_common_b]

    _count_test_kinds(metrics, diffs, values_a, values_b)
    steps = [loop.step for loop in common]
    uppers = [side.upper for side in side_common_a]
    k = len(common)

    variables = {side.value for side in all_sides}
    variables |= {side.aux for side in all_sides if side.aux}

    if not _ziv_gcd_screen(diffs, all_sides, variables):
        return []

    # --- strong-SIV distance pinning ------------------------------------
    pinned: dict[int, int] = {}
    separable = True
    for diff in diffs:
        for l in range(k):
            alpha = diff.coeff(values_a[l])
            beta = diff.coeff(values_b[l])
            if alpha == 0 and beta == 0:
                continue
            if alpha != -beta or beta == 0:
                continue  # not the strong-SIV shape for loop l
            others = [
                c
                for n, c in diff.terms
                if n not in (values_a[l], values_b[l])
            ]
            if any(others):
                continue  # other variables/symbols present
            # beta*(v'_l - v_l) + const = 0  =>  value delta = -const/beta
            if diff.const % beta != 0:
                return []
            value_delta = -diff.const // beta
            if value_delta % steps[l] != 0:
                return []  # not a whole number of iterations apart
            delta = value_delta // steps[l]
            if l in pinned and pinned[l] != delta:
                return []
            u = uppers[l]
            if u is not None and abs(delta) > u:
                return []
            pinned[l] = delta
            break  # only the loop the diff reads can match
        else:
            # A zero diff (the screen refuted non-zero constants) leaves
            # the pair separable; any other unpinned diff does not.
            separable = separable and not diff.terms

    return _PairSystem(
        side_common_a,
        all_sides,
        diffs,
        values_a,
        values_b,
        steps,
        variables,
        pinned,
        separable,
    )


def _closed_form_vectors(system: _PairSystem) -> list[DepVector] | None:
    """The pair's vectors without FME, or None when the pair needs FME.

    Applies when the pair is separable (every subscript difference is
    zero or the strong-SIV form that pinned its loop), both references
    share all their loops, every loop steps by +-1, and no bound names a
    loop of the chain. The system then splits into one block per loop,
    which FME reduces to its span constraint ``span_l - |d_l| >= 0``
    (``d_l = 0`` for a loop the subscripts leave free, whose component is
    '*'). ``_strengthen`` refutes the same cross-loop pairs of those
    constraints FME would, e.g. an empty ``DO J = N, 1`` beside
    ``DO I = 1, N``.
    """
    k = len(system.sides_a)
    if not system.separable or len(system.all_sides) != 2 * k:
        return None  # coupled, symbolic or one-sided
    chain = set(system.values_a)
    spans: list[Affine] = []
    for l, side in enumerate(system.sides_a):
        if side.aux is not None:
            return None
        if not chain.isdisjoint(side.lb_res.names | side.ub_res.names):
            return None  # a bound reads the chain: triangular
        if side.step > 0:
            span = side.ub_res - side.lb_res
        else:
            span = side.lb_res - side.ub_res
        spans.append(span - abs(system.pinned.get(l, 0)))
    if _strengthen(spans) is None:
        return []
    pinned = system.pinned
    return [DepVector(tuple(pinned.get(l, DIR_STAR) for l in range(k)))]


def _fme_vectors(system: _PairSystem) -> list[DepVector]:
    """The direction hierarchy of the pair, each node checked by FME."""
    all_sides = system.all_sides
    diffs = system.diffs
    values_a = system.values_a
    values_b = system.values_b
    steps = system.steps
    variables = system.variables
    pinned = system.pinned
    k = len(values_a)

    # --- which remaining loops actually constrain the subscripts --------
    def loop_appears(l: int) -> bool:
        return any(
            d.coeff(values_a[l]) != 0 or d.coeff(values_b[l]) != 0
            for d in diffs
        )

    branch_levels = [
        l for l in range(k) if l not in pinned and loop_appears(l)
    ]

    # --- Fourier-Motzkin feasibility for a (partial) assignment ---------
    # Base system: exact per-side loop bounds (triangular couplings are
    # kept as affine constraints between value variables) plus the
    # subscript equations. Symbols are opaque; contradictions only come
    # from symbol-free constants, so the test stays conservative.
    base_constraints: list[Affine] = []
    for side in all_sides:
        base_constraints.extend(_bound_constraints(side))
    for diff in diffs:
        base_constraints.append(diff)  # diff == 0
        base_constraints.append(-diff)

    def feasible(assign: dict[int, "int | str"]) -> bool:
        constraints = list(base_constraints)
        for l in range(k):
            what = assign.get(l, pinned.get(l, DIR_STAR))
            delta = Affine.var(values_b[l]) - Affine.var(values_a[l])
            step = steps[l]
            if isinstance(what, int):
                constraints.append(delta - what * step)
                constraints.append(what * step - delta)
            elif what == DIR_LT:  # sink at a later iteration
                if step > 0:
                    constraints.append(delta - step)
                else:
                    constraints.append(step * 1 - delta)
            elif what == DIR_GT:  # sink at an earlier iteration
                if step > 0:
                    constraints.append(-delta - step)
                else:
                    constraints.append(delta + step * 1)
            elif what == DIR_EQ:
                constraints.append(delta)
                constraints.append(-delta)
        return _fme_feasible(constraints, variables)

    if not feasible({}):
        return []

    # --- enumerate the direction hierarchy over branch_levels -----------
    results: list[DepVector] = []

    def emit(assign: dict[int, "int | str"]) -> None:
        comps: list["int | str"] = []
        for l in range(k):
            if l in pinned:
                comps.append(pinned[l])
            elif l in assign:
                # '=' is exactly distance 0; keep vectors canonical.
                comps.append(0 if assign[l] == DIR_EQ else assign[l])
            else:
                comps.append(DIR_STAR)
        results.append(DepVector(tuple(comps)))

    def recurse(idx: int, assign: dict[int, "int | str"]) -> None:
        if len(results) > MAX_VECTORS:
            return
        if idx == len(branch_levels):
            emit(assign)
            return
        level = branch_levels[idx]
        for direction in (DIR_LT, DIR_EQ, DIR_GT):
            trial = dict(assign)
            trial[level] = direction
            if feasible(trial):
                recurse(idx + 1, trial)

    recurse(0, {})

    if len(results) > MAX_VECTORS:
        return [DepVector((DIR_STAR,) * k)]
    return results


def _count_test_kinds(
    metrics, diffs: list[Affine], values_a: list[str], values_b: list[str]
) -> None:
    """Classify each subscript dimension as ZIV / SIV / MIV (GKT91 naming)
    and bump the matching counters (observability only — no screening)."""
    metrics.counter("dep.pairs").inc()
    for diff in diffs:
        levels = sum(
            1
            for va, vb in zip(values_a, values_b)
            if diff.coeff(va) != 0 or diff.coeff(vb) != 0
        )
        if levels == 0:
            metrics.counter("dep.test.ziv").inc()
        elif levels == 1:
            metrics.counter("dep.test.siv").inc()
        else:
            metrics.counter("dep.test.miv").inc()


def _ziv_gcd_screen(
    diffs: list[Affine], sides: list[_SideLoop], variables: set[str]
) -> bool:
    """ZIV and GCD screening per subscript dimension.

    The GCD test needs the stride of each loop variable, which is
    ``step`` when the lower bound is constant. Loops with symbolic or
    coupled lower bounds contribute an effective stride of 1
    (conservative); symbolic offsets disable the test for that dimension.
    """
    stride_of: dict[str, int] = {}
    offset_of: dict[str, int | None] = {}
    for side in sides:
        stride_of[side.value] = abs(side.step)
        if side.lb_res.is_constant():
            offset_of[side.value] = side.lb_res.const
        else:
            offset_of[side.value] = None
            stride_of[side.value] = 1

    for diff in diffs:
        loop_terms = [(n, c) for n, c in diff.terms if n in variables]
        sym_terms = [c for n, c in diff.terms if n not in variables]
        if sym_terms:
            continue  # symbolic offset: cannot disprove here
        if not loop_terms:
            if diff.const != 0:
                return False  # ZIV
            continue
        g = 0
        const = diff.const
        usable = True
        for name, coeff in loop_terms:
            stride = stride_of.get(name, 1)
            offset = offset_of.get(name, 0)
            if offset is None:
                offset = 0  # folded into an effective stride of 1
            g = gcd(g, abs(coeff) * stride)
            const += coeff * offset  # v = offset + stride * t
        if g and const % g != 0:
            return False
    return True
