"""Fix-it verification: legality, oracles, and miss-ratio scoring.

A candidate fix-it was built by a transform whose own legality checks
admitted it. Before the engine surfaces it, the repair is re-checked
end to end:

1. **structural validation** — :func:`repro.ir.validate.validate_program`
   on the transformed program (only enforced when the original program
   itself validates; fuzz-generated IR legitimately reuses loop names
   across sibling nests);
2. **execution equivalence** — interpret original and transformed
   programs at a shrunken problem size and require bit-identical final
   state on every array common to both (scalar replacement introduces
   temporaries, which are excluded);
3. **brute-force dependence coverage** — the analytic dependences of the
   transformed program must cover the exhaustive oracle of
   :mod:`repro.verify.depforce`, so the rewrite did not push the program
   outside what the analyses can reason about.

The shrunken size: a candidate that carries its
:class:`~repro.transforms.recipe.Recipe` (every lint fix-it and autotune
search candidate does) is checked by replaying the recipe on a copy of
the original with every trip count capped at :data:`VERIFY_PARAM_CAP`,
constant bounds and ``PARAMETER`` bounds alike (:func:`capped`), tile
sizes fitted to the capped trips. The replay must first reproduce the
candidate from the full-size original, so what is checked is the
candidate's own rewrite. A candidate without a recipe, or whose recipe
does not reproduce it, is checked as itself with only its parameters
shrunk, as constant bounds cannot be shrunk without knowing the rewrite.

The original's validation and interpreted state are the same for every
candidate of one lint or autotune run; they are memoized per program
in a registered :class:`~repro.model.memo.MemoCache`.

Scoring uses the analytic predictor at full problem size. The engine's
metric is **predicted misses per original access**: both
``miss_before`` and ``miss_after`` are normalized by the *original*
program's access count, so a fix-it that eliminates always-hit
references (scalar replacement shrinks the access stream without
touching the miss count) is not penalized by a shrinking denominator.
For the unmodified program this equals its ordinary FA-LRU miss ratio.
"""

from __future__ import annotations

from repro.errors import ORACLE_FAILURES, IRError
from repro.ir.affine import Affine
from repro.ir.nodes import Loop, Program
from repro.ir.pretty import pretty_program
from repro.ir.validate import validate_program
from repro.model.memo import MemoCache
from repro.obs import get_obs

__all__ = [
    "verify_fixit",
    "capped",
    "capped_params",
    "predicted_misses",
    "VERIFY_PARAM_CAP",
    "PAYOFF_EPS",
]

#: Trip counts (and parameters) are capped at this value for the
#: interpreter-based equivalence check and the dependence oracle;
#: transforms are affine/size-independent, so a small instance is a
#: sound differential witness at a fraction of the cost.
VERIFY_PARAM_CAP = 8

#: Tolerance when requiring "never worsens the predicted miss ratio".
PAYOFF_EPS = 1e-12

#: The original program's facts, shared by all its candidates: keyed
#: ``("valid", program)`` -> bool and ``("state", program)`` -> (state,).
_ORIGINALS = MemoCache("verify.original.cache", cap=64)


def capped_params(program: Program) -> Program:
    """``program`` with every parameter clamped to the cap."""
    small = {name: min(value, VERIFY_PARAM_CAP) for name, value in program.params}
    return program.with_params(small) if small else program


def _hull(
    form: Affine, bounds: dict[str, tuple[int, int]]
) -> tuple[int, int] | None:
    """Value hull of ``form``; None when a name is bound nowhere (no cap)."""
    return form.interval(bounds) if form.names <= bounds.keys() else None


def _cap_loop(
    loop: Loop, env: dict[str, int], ranges: dict[str, tuple[int, int]]
) -> Loop:
    cap, step = VERIFY_PARAM_CAP, loop.step
    lb, ub = loop.lb, loop.ub
    # Parameters are points.
    bounds = {name: (value, value) for name, value in env.items()} | ranges
    trip = loop.constant_trip(env)
    if trip is not None:
        if trip > cap:
            ub = lb + (cap - 1) * step  # the first ``cap`` iterations
    else:
        # Triangular: one constant upper bound, chosen so that every
        # instance of the loop runs a prefix of its original range.
        low, high = _hull(lb, bounds), _hull(ub, bounds)
        if low is not None and high is not None:
            start = low[0] if step > 0 else low[1]
            end = high[1] if step > 0 else high[0]
            new = start + (cap - 1) * step
            if (end - start) // step + 1 > cap and (
                new <= high[0] if step > 0 else new >= high[1]
            ):
                ub = Affine.constant(new)
    inner = dict(ranges)
    low, high = _hull(lb, bounds), _hull(ub, bounds)
    if low is not None and high is not None:
        inner[loop.var] = (min(low[0], high[0]), max(low[1], high[1]))
    else:
        inner.pop(loop.var, None)
    body = tuple(
        _cap_loop(item, env, inner) if isinstance(item, Loop) else item
        for item in loop.body
    )
    return Loop(loop.var, lb, ub, step, body)


def capped(program: Program) -> Program:
    """``program`` with parameters and trip counts capped at the cap.

    Parameters are clamped to :data:`VERIFY_PARAM_CAP`; then every loop
    that would still run more iterations keeps only its first ones. A
    triangular loop gets a constant upper bound that caps its longest
    instance, when one exists that only ever cuts ranges short. Every
    capped loop runs a prefix of its original index range, so all
    accesses stay within the declared extents.
    """
    small = capped_params(program)
    env = small.param_env
    return small.with_body(
        tuple(
            _cap_loop(item, env, {}) if isinstance(item, Loop) else item
            for item in small.body
        )
    )


def _validates(original: Program) -> bool:
    key = ("valid", original)
    hit = _ORIGINALS.get(key)
    if hit is None:
        try:
            validate_program(original)
            hit = True
        except IRError:
            hit = False
        _ORIGINALS.put(key, hit)
    return hit


def _base_state(program: Program) -> dict[str, bytes] | None:
    """Interpreted final state of a shrunk original (None: it does not run)."""
    from repro.verify.oracles import run_state

    key = ("state", program)
    hit = _ORIGINALS.get(key)
    if hit is None:
        try:
            hit = (run_state(program),)
        except ORACLE_FAILURES:
            # The *original* program does not run under the interpreter's
            # default initialization (e.g. cholesky needs an SPD input, so
            # SQRT sees a negative). That is not the fix-it's fault; the
            # differential state check is skipped and legality rests on
            # the dependence oracle.
            hit = (None,)
        _ORIGINALS.put(key, hit)
    return hit[0]


def _replayed(
    original: Program, candidate: Program, recipe
) -> tuple[Program, Program] | None:
    """The capped original and the recipe replayed on it, or None when the
    recipe does not reproduce ``candidate`` from ``original``."""
    try:
        if pretty_program(recipe.replay(original)) != pretty_program(candidate):
            return None
        small = capped(original)
        return small, recipe.replay(small)
    except ORACLE_FAILURES:
        return None


def verify_fixit(
    original: Program, candidate: Program, recipe=None
) -> tuple[bool, str]:
    """Check a fix-it program against the oracles.

    ``recipe`` (a :class:`~repro.transforms.recipe.Recipe`) is how
    ``candidate`` was built from ``original``; with it the oracles run
    at capped trip counts (see the module docstring).

    Returns ``(True, "oracle")`` on success, else ``(False, slug)`` with
    a short failure slug (``invalid-ir``, ``crash:...``,
    ``state-mismatch:...``, ``dependence-uncovered``).
    """
    if _validates(original):
        try:
            validate_program(candidate)
        except IRError as exc:
            return False, f"invalid-ir: {exc}"

    from repro.verify.depforce import dependence_coverage
    from repro.verify.oracles import differing_arrays, run_state

    pair = _replayed(original, candidate, recipe) if recipe is not None else None
    if pair is None:
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter("verify.fixit.uncapped").inc()
    base_prog, cand_prog = pair or (capped_params(original), capped_params(candidate))
    base = _base_state(base_prog)
    if base is not None:
        try:
            state = run_state(cand_prog)
        except ORACLE_FAILURES as exc:
            return False, f"crash: {type(exc).__name__}: {exc}"
        differing = differing_arrays(base, state)
        if differing:
            return False, f"state-mismatch: {', '.join(differing)}"

    try:
        missing, _count = dependence_coverage(cand_prog)
    except ORACLE_FAILURES as exc:
        return False, f"crash: {type(exc).__name__}: {exc}"
    if missing:
        return False, f"dependence-uncovered: {missing[0]}"
    return True, "oracle"


def predicted_misses(program: Program, line: int, capacity: int) -> tuple[int, int]:
    """Analytic ``(misses, accesses)`` of ``program`` at ``capacity`` lines.

    Routed through the shared :class:`repro.model.oracle.AnalyticOracle`
    so lint payoff scoring and the autotuner rank candidates with the
    same memoized oracle (one prediction per canonical program text).
    """
    from repro.model.oracle import AnalyticOracle

    prediction = AnalyticOracle(line=line, capacity=capacity).prediction(program)
    return prediction.misses_for_capacity(capacity), prediction.accesses
