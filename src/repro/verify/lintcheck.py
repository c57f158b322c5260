"""Fuzz oracle for the lint engine: fix-its are legal and never regress.

For a generated program the oracle asserts the engine's two public
invariants, independently of the engine's own verification pass:

* every *attached* fix-it (the engine only attaches verified ones) is
  re-checked from scratch — the fixed program must produce bit-identical
  final state at a shrunken problem size, and its predicted miss count
  must not exceed the original's (the engine withholds regressions);
* the ``--fix`` driver is monotone end to end — applying every fix-it in
  payoff order yields a program that is still execution-equivalent to
  the original and whose predicted miss count is no worse.

A violation is returned as a :class:`LintMismatch` for the fuzz runner
to report; ``None`` means the case is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.ir.nodes import Program
from repro.verify.oracles import state_difference

__all__ = ["LintMismatch", "check_lint", "ORACLE_LINE", "ORACLE_CAPACITY"]

#: Cache geometry the oracle scores with (small capacity so miss ratios
#: are not saturated at 0 on fuzz-sized programs).
ORACLE_LINE = 128
ORACLE_CAPACITY = 64

#: Slack when comparing predicted miss counts (they are exact integers,
#: but keep a tolerance so a future fractional predictor stays safe).
_MISS_EPS = 1e-9


@dataclass(frozen=True)
class LintMismatch:
    where: str  # "fixit-state" | "fixit-misses" | "fixit-unverified" | "fix-state" | "fix-misses" | "crash"
    detail: str


def check_lint(program: Program) -> LintMismatch | None:
    """Run the lint engine over ``program`` and re-check its promises."""
    from repro.lint import apply_fixes, lint_program
    from repro.lint.verifyfix import predicted_misses

    try:
        result = lint_program(
            program, line=ORACLE_LINE, capacity=ORACLE_CAPACITY
        )
        base_misses, _ = predicted_misses(program, ORACLE_LINE, ORACLE_CAPACITY)
        for diag in result.diagnostics:
            fixit = diag.fixit
            if fixit is None:
                continue
            if not fixit.verified:
                # Engine policy: unverified fix-its ride only on
                # error-severity diagnostics (the escalation path).
                if diag.severity != "error":
                    return LintMismatch(
                        "fixit-unverified",
                        f"{diag.check_id}: unverified fix-it attached to a "
                        f"{diag.severity}-severity diagnostic",
                    )
                continue
            differing = state_difference(program, fixit.program)
            if differing:
                return LintMismatch(
                    "fixit-state",
                    f"{diag.check_id} ({fixit.transform}): arrays differ: "
                    f"{differing}",
                )
            misses, _ = predicted_misses(
                fixit.program, ORACLE_LINE, ORACLE_CAPACITY
            )
            if misses > base_misses + _MISS_EPS:
                return LintMismatch(
                    "fixit-misses",
                    f"{diag.check_id} ({fixit.transform}): predicted misses "
                    f"{base_misses} -> {misses} (regression)",
                )

        outcome = apply_fixes(
            program, line=ORACLE_LINE, capacity=ORACLE_CAPACITY
        )
        if outcome.applied:
            differing = state_difference(program, outcome.program)
            if differing:
                return LintMismatch(
                    "fix-state",
                    f"after {len(outcome.applied)} fix-it(s): arrays differ: "
                    f"{differing}",
                )
            final_misses, _ = predicted_misses(
                outcome.program, ORACLE_LINE, ORACLE_CAPACITY
            )
            if final_misses > base_misses + _MISS_EPS:
                return LintMismatch(
                    "fix-misses",
                    f"after {len(outcome.applied)} fix-it(s): predicted "
                    f"misses {base_misses} -> {final_misses} (regression)",
                )
    except (ReproError, ArithmeticError, ValueError, IndexError, KeyError) as exc:
        return LintMismatch("crash", f"{type(exc).__name__}: {exc}")
    return None
