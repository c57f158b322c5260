"""Execution-equivalence oracles for every transformation.

The ground truth is the interpreter: a transformation admitted by the
legality layer must leave the final array state *bit-identical*, because
a dependence-preserving reordering moves whole statement instances
around but never changes the operations (or their order) within one
instance — every read still sees the same writes, so even floating-point
results are reproduced exactly.

For each generated program, :func:`transform_trials` enumerates concrete
applications of every transform in the pipeline — permutation, reversal,
fusion, distribution, tiling, unroll-and-jam, scalar replacement, and
the full ``compound`` driver — recording for each the legality layer's
verdict and the transformed program.  Rejected transforms are *forced*
through the mechanical rewriter wherever that is possible, so the
checker can also measure over-conservatism: a rejected transform whose
output matches is a missed opportunity (counted, never a failure).

The module also holds what every oracle of :mod:`repro.verify` shares:
the :class:`Mismatch` they all report and the array-state comparison
(:func:`differing_arrays`) that the fix-it verifier uses as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ORACLE_FAILURES, TransformError
from repro.exec.interp import Interpreter
from repro.ir.nodes import Loop, Program
from repro.ir.visit import iter_loops, replace_at
from repro.model.loopcost import CostModel
from repro.transforms import legality
from repro.transforms.compound import compound
from repro.transforms.distribution import distribute_nest
from repro.transforms.fusion import compatible_depth, fuse_all, fusion_preventing
from repro.transforms.permute import apply_order
from repro.transforms.recipe import Fuse
from repro.transforms.scalar_replace import scalar_replace_program
from repro.transforms.tiling import tile_nest
from repro.transforms.unroll_jam import unroll_and_jam

__all__ = [
    "Mismatch",
    "Trial",
    "TrialResult",
    "transform_trials",
    "check_trial",
    "run_state",
    "differing_arrays",
    "state_difference",
]

#: Permutation trials are enumerated exhaustively up to this chain depth.
_MAX_PERM_DEPTH = 3


@dataclass(frozen=True)
class Mismatch:
    """What one oracle found wrong with one case.

    ``where`` is the slug of the broken invariant, ``detail`` says what
    differed and ``context`` the setting it differed in (a cache
    geometry, the predictor's path, a trial's parameters). ``reason``
    replaces the oracle's reason slug when it varies per finding: a
    transform trial reports the legality slug that admitted it.
    """

    where: str
    detail: str
    context: str = ""
    reason: str = ""


@dataclass(frozen=True)
class Trial:
    """One concrete transform application on one program.

    ``accepted`` is the legality layer's verdict; ``reason`` the slug of
    the decision that admitted (or rejected) it.  ``program`` is the
    transformed program — built even for rejected transforms when the
    mechanical rewriter allows, so over-conservatism can be measured.
    ``compare`` optionally restricts the equivalence check to the named
    arrays (scalar replacement introduces fresh temporaries).
    """

    transform: str
    detail: str
    accepted: bool
    reason: str
    program: Program
    compare: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TrialResult:
    trial: Trial
    equal: bool
    differing: tuple[str, ...] = ()
    crashed: str | None = None

    @property
    def is_failure(self) -> bool:
        """An admitted transform that changed observable behaviour."""
        return self.trial.accepted and (not self.equal or self.crashed is not None)

    @property
    def is_over_conservative(self) -> bool:
        """A rejected transform that would have been behaviour-preserving."""
        return (not self.trial.accepted) and self.equal and self.crashed is None


def run_state(program: Program) -> dict[str, bytes]:
    """Final array state, one opaque byte-string per declared array.

    ``check_values=False``: generated programs are linear so values stay
    finite in practice, but equivalence must be judged on raw bits either
    way (NaN/Inf propagation is deterministic).
    """
    arrays = Interpreter(program, check_values=False).run()
    return {name: arr.tobytes() for name, arr in arrays.items()}


def differing_arrays(
    base: dict[str, bytes],
    state: dict[str, bytes],
    names: tuple[str, ...] | None = None,
) -> tuple[str, ...]:
    """The arrays among ``names`` whose final states differ; by default
    every array both states share, in sorted order."""
    if names is None:
        names = sorted(base.keys() & state.keys())
    return tuple(name for name in names if state.get(name) != base.get(name))


def state_difference(original: Program, candidate: Program) -> str | None:
    """Arrays whose final states differ after shrinking both programs'
    parameters to the fix-it verification cap; None when all shared
    arrays agree."""
    from repro.lint.verifyfix import capped_params

    base = run_state(capped_params(original))
    state = run_state(capped_params(candidate))
    return ", ".join(differing_arrays(base, state)) or None


def check_trial(base: dict[str, bytes], trial: Trial) -> TrialResult:
    """Compare a trial's final state against the untransformed state."""
    try:
        state = run_state(trial.program)
    except ORACLE_FAILURES as exc:
        return TrialResult(trial, equal=False, crashed=f"{type(exc).__name__}: {exc}")
    names = trial.compare if trial.compare is not None else tuple(base)
    differing = differing_arrays(base, state, names)
    return TrialResult(trial, equal=not differing, differing=differing)


# ----------------------------------------------------------------------
# Trial enumeration
# ----------------------------------------------------------------------
def transform_trials(
    program: Program, model: CostModel | None = None
) -> list[Trial]:
    """Enumerate transform trials for one program (deterministic order)."""
    model = model or CostModel()
    trials: list[Trial] = []
    trials.extend(_permutation_trials(program))
    trials.extend(_reversal_trials(program))
    trials.extend(_fusion_trials(program))
    trials.extend(_fuse_all_trials(program))
    trials.extend(_distribution_trials(program, model))
    trials.extend(_tiling_trials(program))
    trials.extend(_unroll_jam_trials(program))
    trials.extend(_scalar_replace_trials(program))
    trials.extend(_compound_trials(program, model))
    return trials


def _top_chains(program: Program):
    for index, item in enumerate(program.body):
        if isinstance(item, Loop):
            yield index, item, item.perfect_nest_loops()


def _permutation_trials(program: Program) -> list[Trial]:
    trials = []
    for index, item, chain in _top_chains(program):
        if not 2 <= len(chain) <= _MAX_PERM_DEPTH:
            continue
        original = tuple(loop.var for loop in chain)
        vectors = legality.constraining_vectors(item)
        index_of = {var: i for i, var in enumerate(original)}
        for order in itertools.permutations(original):
            if order == original:
                continue
            legal = legality.order_is_legal(
                vectors, [index_of[v] for v in order]
            )
            try:
                nest = apply_order(chain, order, set())
            except TransformError:
                continue  # bounds not derivable: mechanically inapplicable
            trials.append(
                Trial(
                    "permute",
                    ".".join(order),
                    accepted=legal,
                    reason="order-legal" if legal else "order-illegal",
                    program=program.with_body(replace_at(program.body, (index,), [nest])),
                )
            )
    return trials


def _reversal_trials(program: Program) -> list[Trial]:
    trials = []
    for index, item, chain in _top_chains(program):
        original = tuple(loop.var for loop in chain)
        vectors = legality.constraining_vectors(item)
        identity = list(range(len(original)))
        for pos, var in enumerate(original):
            legal = legality.order_is_legal(
                vectors, identity, frozenset({pos})
            )
            try:
                nest = apply_order(chain, original, {var})
            except TransformError:
                continue  # coupled nest: reversal mechanically inapplicable
            trials.append(
                Trial(
                    "reversal",
                    var,
                    accepted=legal,
                    reason="reversal-legal" if legal else "reversal-illegal",
                    program=program.with_body(replace_at(program.body, (index,), [nest])),
                )
            )
    return trials


def _fusion_trials(program: Program) -> list[Trial]:
    trials = []
    body = program.body
    for i in range(len(body) - 1):
        a, b = body[i], body[i + 1]
        if not (isinstance(a, Loop) and isinstance(b, Loop)):
            continue
        depth = compatible_depth(a, b)
        if depth == 0:
            continue
        preventing = fusion_preventing(a, b, depth)
        trials.append(
            Trial(
                "fusion",
                f"{a.var}+{b.var}@{depth}",
                accepted=not preventing,
                reason="fusion-preventing" if preventing else "fusion-safe",
                program=Fuse((), ((i, i + 1, depth),)).apply(program),
            )
        )
    return trials


def _fuse_all_trials(program: Program) -> list[Trial]:
    trials = []
    for index, item, _chain in _top_chains(program):
        if item.is_perfect_nest():
            continue
        fused = fuse_all(item)
        if fused is None:
            continue  # rejected and not mechanically forceable
        trials.append(
            Trial(
                "fuse-all",
                item.var,
                accepted=True,
                reason="fuse-all-legal",
                program=program.with_body(replace_at(program.body, (index,), [fused])),
            )
        )
    return trials


def _distribution_trials(program: Program, model: CostModel) -> list[Trial]:
    trials = []
    used = {loop.var for loop in iter_loops(program)}
    for index, item, _chain in _top_chains(program):
        if item.depth < 2:
            continue
        outcome = distribute_nest(item, model, used_names=set(used))
        if outcome is None:
            continue
        trials.append(
            Trial(
                "distribution",
                f"{item.var}@{outcome.level}",
                accepted=True,
                reason="scc-partition",
                program=program.with_body(replace_at(program.body, (index,), outcome.nodes)),
            )
        )
    return trials


def _divisor(trip: int) -> int | None:
    for d in (2, 3, 4):
        if 1 < d < trip and trip % d == 0:
            return d
    return None


def _tiling_trials(program: Program) -> list[Trial]:
    trials = []
    for index, item, chain in _top_chains(program):
        tiles: dict[str, int] = {}
        for loop in chain:
            if loop.step != 1:
                continue
            tile = _divisor(loop.constant_trip() or 0)
            if tile is not None:
                tiles[loop.var] = tile
        if not tiles:
            continue
        try:
            result = tile_nest(item, tiles)
            accepted, reason = True, "fully-permutable"
        except TransformError:
            # Rejected by the legality check; force the mechanics.
            try:
                result = tile_nest(item, tiles, check=False)
            except TransformError:
                continue
            accepted, reason = False, "band-not-permutable"
        trials.append(
            Trial(
                "tiling",
                ",".join(f"{v}/{t}" for v, t in tiles.items()),
                accepted=accepted,
                reason=reason,
                program=program.with_body(replace_at(program.body, (index,), [result.loop])),
            )
        )
    return trials


def _unroll_jam_trials(program: Program) -> list[Trial]:
    trials = []
    for index, item, chain in _top_chains(program):
        if len(chain) < 2 or not item.is_perfect_nest():
            continue
        if item.step != 1:
            continue
        factor = _divisor(item.constant_trip() or 0)
        if factor is None:
            continue
        try:
            jammed = unroll_and_jam(item, factor)
            accepted, reason = True, "jam-legal"
        except TransformError:
            try:
                jammed = unroll_and_jam(item, factor, check=False)
            except TransformError:
                continue
            accepted, reason = False, "jam-illegal"
        trials.append(
            Trial(
                "unroll-jam",
                f"{item.var}x{factor}",
                accepted=accepted,
                reason=reason,
                # Jammed copies are new statements: renumber program-wide.
                program=program.with_body(
                    replace_at(program.body, (index,), [jammed])
                ).renumbered(),
            )
        )
    return trials


def _scalar_replace_trials(program: Program) -> list[Trial]:
    result = scalar_replace_program(program)
    if not result.replaced:
        return []
    return [
        Trial(
            "scalar-replace",
            f"{result.replaced} refs",
            accepted=True,
            reason="promotable",
            program=result.program,
            compare=tuple(decl.name for decl in program.arrays),
        )
    ]


def _compound_trials(program: Program, model: CostModel) -> list[Trial]:
    outcome = compound(program, model)
    return [
        Trial(
            "compound",
            "driver",
            accepted=True,
            reason="compound",
            program=outcome.program,
            compare=tuple(decl.name for decl in program.arrays),
        )
    ]
