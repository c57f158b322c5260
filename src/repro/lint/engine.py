"""The lint engine: run checks, verify fix-its, rank, and apply.

:func:`lint_program` drives every registered (or selected) check over a
shared :class:`LintContext`, then post-processes each candidate fix-it:

* verification failure ⇒ the diagnostic escalates to **error** severity
  and the fix-it stays attached with ``verified=False`` — a transform
  claimed legality and the oracle disagreed, which is a bug worth
  failing CI over;
* a verified fix-it that *worsens* the predicted miss ratio is withheld
  (the diagnostic survives with a ``fixit_withheld`` note) — emitted
  fix-its never regress the analytic prediction, which the
  ``verify/lintcheck`` fuzz oracle asserts;
* otherwise the fix-it is attached with its miss-ratio scores, and
  diagnostics are ranked most-severe first, then by predicted payoff.

:func:`apply_fixes` is the ``--fix`` driver: repeatedly lint, apply the
highest-payoff verified fix-it, and re-lint, until the program is clean
or converged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.ir.nodes import Program
from repro.ir.pretty import pretty_program
from repro.lint.diagnostics import ERROR, SEVERITIES, Diagnostic
from repro.lint.registry import LintContext, checks_for
from repro.lint.verifyfix import PAYOFF_EPS, verify_fixit
from repro.model.loopcost import CostModel
from repro.obs import get_obs

__all__ = ["LintResult", "lint_program", "AppliedFix", "FixOutcome", "apply_fixes"]

#: Most fix-its :func:`apply_fixes` applies to one program.
_FIX_ROUNDS = 8


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run over one program."""

    program: Program
    diagnostics: tuple[Diagnostic, ...]
    checks_run: tuple[str, ...]
    line: int
    capacity: int
    miss_ratio: float

    def counts(self) -> dict[str, int]:
        out = {severity: 0 for severity in SEVERITIES}
        for diag in self.diagnostics:
            out[diag.severity] = out.get(diag.severity, 0) + 1
        return out

    @property
    def errors(self) -> int:
        return self.counts()[ERROR]

    def fixable(self) -> tuple[Diagnostic, ...]:
        """Diagnostics carrying a verified fix-it."""
        return tuple(
            d
            for d in self.diagnostics
            if d.fixit is not None and d.fixit.verified
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program.name,
            "line": self.line,
            "capacity": self.capacity,
            "miss_ratio": round(self.miss_ratio, 6),
            "checks": list(self.checks_run),
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _verify_and_score(
    ctx: LintContext, diag: Diagnostic, before: float, accesses: int
) -> Diagnostic:
    """Run the oracles over one candidate fix-it and fold in the verdict.

    ``before`` and the computed ``after`` are predicted misses normalized
    by the *original* program's access count (``accesses``), so repairs
    that shrink the access stream without adding misses score as neutral
    rather than being penalized by a smaller denominator.
    """
    fixit = diag.fixit
    assert fixit is not None
    obs = get_obs()
    ok, slug = verify_fixit(ctx.program, fixit.program, fixit.recipe)
    # Score through the context's cost oracle — the same interface the
    # autotuner plans with, so both rank a candidate identically.
    after_misses = ctx.oracle.cost(fixit.program).misses
    after = after_misses / accesses if accesses else 0.0
    if not ok:
        if obs.enabled:
            obs.metrics.counter("lint.fixits.failed").inc()
            obs.remark(
                "lint",
                "rejected",
                f"{diag.check_id}: fix-it ({fixit.transform}) failed "
                f"verification: {slug}",
                reason="fixit-verification",
                check=diag.check_id,
            )
        return replace(
            diag,
            severity=ERROR,
            message=diag.message + f" [fix-it failed verification: {slug}]",
            fixit=replace(
                fixit,
                verified=False,
                verification=slug,
                miss_before=before,
                miss_after=after,
            ),
        )
    if after > before + PAYOFF_EPS:
        if obs.enabled:
            obs.metrics.counter("lint.fixits.withheld").inc()
        data = dict(diag.data)
        data["fixit_withheld"] = "no-predicted-payoff"
        data["miss_before"] = round(before, 6)
        data["miss_after"] = round(after, 6)
        return replace(diag, fixit=None, data=data)
    if obs.enabled:
        obs.metrics.counter("lint.fixits.verified").inc()
    return replace(
        diag,
        fixit=replace(
            fixit,
            verified=True,
            verification="oracle",
            miss_before=before,
            miss_after=after,
        ),
    )


def lint_program(
    program: Program,
    *,
    model: CostModel | None = None,
    checks: tuple[str, ...] | None = None,
    verify: bool = True,
    line: int = 128,
    capacity: int = 512,
) -> LintResult:
    """Run the lint pass pipeline over ``program``."""
    obs = get_obs()
    ctx = LintContext(program, model=model, line=line, capacity=capacity)
    selected = checks_for(checks)
    found: list[Diagnostic] = []
    with obs.span("lint.program", program=program.name, checks=len(selected)):
        for check in selected:
            with obs.span(f"lint.check.{check.name}"):
                results = check.run(ctx)
            if obs.enabled and results:
                obs.metrics.counter(f"lint.check.{check.name}").inc(len(results))
            found.extend(results)

        if found or verify:
            prediction = ctx.prediction()
            accesses = prediction.accesses
            misses = prediction.misses_for_capacity(capacity)
            baseline = misses / accesses if accesses else 0.0
        else:
            baseline = 0.0
            accesses = 0
        finished: list[Diagnostic] = []
        for diag in found:
            if diag.fixit is not None and verify:
                with obs.span("lint.verify", check=diag.check_id):
                    diag = _verify_and_score(ctx, diag, baseline, accesses)
            finished.append(diag)
        finished.sort(key=Diagnostic.sort_key)

        if obs.enabled:
            for diag in finished:
                obs.metrics.counter("lint.diagnostics").inc()
                obs.metrics.counter(f"lint.diagnostics.{diag.severity}").inc()
                obs.remark(
                    "lint",
                    "analysis",
                    f"{diag.check_id} ({diag.severity}): {diag.message}",
                    loops=diag.loops,
                    check=diag.check_id,
                    severity=diag.severity,
                    fixit=diag.fixit.transform if diag.fixit else None,
                )
    return LintResult(
        program=program,
        diagnostics=tuple(finished),
        checks_run=tuple(check.check_id for check in selected),
        line=line,
        capacity=capacity,
        miss_ratio=baseline if (found or verify) else 0.0,
    )


@dataclass(frozen=True)
class AppliedFix:
    """One fix-it applied by :func:`apply_fixes`."""

    check_id: str
    transform: str
    description: str
    miss_before: float
    miss_after: float


@dataclass(frozen=True)
class FixOutcome:
    """Result of the ``--fix`` driver."""

    program: Program
    applied: tuple[AppliedFix, ...]
    result: LintResult  # lint of the final program
    initial: LintResult  # lint of the input program (the first round)


def apply_fixes(
    program: Program,
    *,
    checks: tuple[str, ...] | None = None,
    line: int = 128,
    capacity: int = 512,
) -> FixOutcome:
    """Repeatedly apply the highest-payoff verified fix-it, then re-lint.

    Every applied fix-it has passed the oracles and never increases the
    predicted miss count, so the final program's analytic misses (and its
    miss ratio per original access) are <= the original's. Convergence is
    guaranteed by :data:`_FIX_ROUNDS` plus a seen-program guard against
    zero-payoff cycles.
    """
    obs = get_obs()
    current = program
    applied: list[AppliedFix] = []
    seen = {pretty_program(program)}
    result = initial = lint_program(
        current, checks=checks, verify=True, line=line, capacity=capacity
    )
    for _round in range(_FIX_ROUNDS):
        candidates = result.fixable()
        if not candidates:
            break
        best = min(candidates, key=Diagnostic.sort_key)
        fixit = best.fixit
        assert fixit is not None
        text = pretty_program(fixit.program)
        if text in seen:
            break
        seen.add(text)
        current = fixit.program
        applied.append(
            AppliedFix(
                best.check_id,
                fixit.transform,
                fixit.description,
                fixit.miss_before,
                fixit.miss_after,
            )
        )
        if obs.enabled:
            obs.metrics.counter("lint.fixes.applied").inc()
            obs.remark(
                "lint",
                "applied",
                f"{best.check_id}: applied {fixit.transform} fix-it "
                f"({fixit.description}); predicted miss ratio "
                f"{fixit.miss_before:.4f} -> {fixit.miss_after:.4f}",
                check=best.check_id,
                transform=fixit.transform,
            )
        result = lint_program(
            current,
            checks=checks,
            verify=True,
            line=line,
            capacity=capacity,
        )
    return FixOutcome(
        program=current, applied=tuple(applied), result=result, initial=initial
    )
