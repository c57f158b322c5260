"""Fuzz oracle for the autotuner: chosen configs are legal and monotone.

For a generated program the oracle runs a small budgeted search and
re-checks the autotuner's public promises from scratch:

* **legality provenance** — every search-produced candidate's per-nest
  plan must carry an approved legality slug, and any reordered plan is
  re-audited against :func:`repro.transforms.legality.order_is_legal`
  over a fresh dependence analysis of the *original* nest in its
  variant;
* **miss monotonicity** — the chosen config's predicted miss count must
  not exceed the original program's (the pool seeds the original, so the
  argmin can never regress);
* **compound dominance** — the chosen config must also be at least as
  good as the paper's compound-algorithm output on predicted misses;
* **execution equivalence** — the chosen program must produce
  bit-identical final state at a shrunken problem size, independently of
  the search's own verification pass.

A violation is returned as a :class:`TuneMismatch` for the fuzz runner
to report; ``None`` means the case is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.ir.nodes import Loop, Program
from repro.verify.oracles import state_difference

__all__ = ["TuneMismatch", "check_autotune", "ORACLE_LINE", "ORACLE_CAPACITY"]

#: Cache geometry the oracle scores with (matches the lint fuzz oracle:
#: small capacity so fuzz-sized programs have non-zero miss ratios).
ORACLE_LINE = 128
ORACLE_CAPACITY = 64

#: Search budget per fuzz case — small, the programs have 1-3 nests.
ORACLE_BUDGET = 24

#: Slack when comparing predicted miss counts.
_MISS_EPS = 1e-9

#: Legality slugs the space enumeration is allowed to stamp on a plan.
_APPROVED = frozenset({"original", "checked"})


@dataclass(frozen=True)
class TuneMismatch:
    where: str  # "plan-legality" | "order-illegal" | "monotone" | "compound" | "state" | "crash"
    detail: str


def _audit_plans(result) -> TuneMismatch | None:
    """Re-check every candidate's per-nest legality provenance."""
    from repro.transforms.legality import constraining_vectors, order_is_legal

    for candidate in result.ranked:
        for plan in candidate.plans:
            if plan.legality not in _APPROVED:
                return TuneMismatch(
                    "plan-legality",
                    f"candidate {candidate.describe()!r}: plan for nest "
                    f"{plan.slot} carries unapproved slug {plan.legality!r}",
                )
            if plan.order == plan.original or plan.tiles:
                # Untouched orders are vacuously legal; tiled plans went
                # through tile_nest's full-permutability check, which is
                # strictly stronger than per-order legality.
                continue
            # Re-audit the reorder against the *result* nest: a legal
            # permutation preserves every dependence, so the inverse
            # order restoring the original must itself be legal over the
            # transformed nest's (re-analyzed) vectors; an illegal
            # reorder flips a dependence and fails this audit.
            item = candidate.program.body[plan.slot]
            if not isinstance(item, Loop):
                return TuneMismatch(
                    "plan-legality",
                    f"candidate {candidate.describe()!r}: plan slot "
                    f"{plan.slot} is not a loop nest",
                )
            chain = item.perfect_nest_loops()
            achieved = tuple(loop.var for loop in chain)
            if achieved != plan.order:
                return TuneMismatch(
                    "plan-legality",
                    f"candidate {candidate.describe()!r}: plan claims order "
                    f"{plan.order}, nest has {achieved}",
                )
            vectors = constraining_vectors(item)
            back = [plan.order.index(var) for var in plan.original]
            if not order_is_legal(vectors, back):
                return TuneMismatch(
                    "order-illegal",
                    f"candidate {candidate.describe()!r}: order "
                    f"{'.'.join(plan.order)} of nest {plan.slot} fails the "
                    f"legality checker",
                )
    return None


def check_autotune(program: Program) -> TuneMismatch | None:
    """Run a budgeted search over ``program`` and re-check its promises."""
    from repro.autotune import autotune

    try:
        result = autotune(
            program,
            line=ORACLE_LINE,
            capacity=ORACLE_CAPACITY,
            budget=ORACLE_BUDGET,
            beam=2,
            topk=0,
        )
        mismatch = _audit_plans(result)
        if mismatch is not None:
            return mismatch
        best, original = result.best, result.original
        assert best.cost is not None and original.cost is not None
        if best.cost.misses > original.cost.misses + _MISS_EPS:
            return TuneMismatch(
                "monotone",
                f"chosen config {best.describe()!r} predicts "
                f"{best.cost.misses} misses vs original "
                f"{original.cost.misses} (regression)",
            )
        compound_cand = result.compound
        assert compound_cand.cost is not None
        compound_rejected = any(d == "compound" for d, _ in result.rejected)
        if (
            best.cost.misses > compound_cand.cost.misses + _MISS_EPS
            and not compound_rejected
        ):
            # Dominance holds whenever the compound seed itself survived
            # the verification walk (it sits in the ranked pool, so the
            # first verified candidate can never score worse than it).
            return TuneMismatch(
                "compound",
                f"chosen config {best.describe()!r} predicts "
                f"{best.cost.misses} misses vs compound "
                f"{compound_cand.cost.misses}",
            )
        differing = state_difference(program, best.program)
        if differing:
            return TuneMismatch(
                "state",
                f"chosen config {best.describe()!r}: arrays differ: "
                f"{differing}",
            )
    except (ReproError, ArithmeticError, ValueError, IndexError, KeyError) as exc:
        return TuneMismatch("crash", f"{type(exc).__name__}: {exc}")
    return None
