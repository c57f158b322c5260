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

A violation is returned as a :class:`~repro.verify.oracles.Mismatch`
for the fuzz runner to report; ``None`` means the case is clean. The
cache geometry and miss tolerance below are shared with the autotune
oracle.
"""

from __future__ import annotations

from repro.errors import ORACLE_FAILURES
from repro.ir.nodes import Program
from repro.verify.oracles import Mismatch, state_difference

__all__ = ["check_lint", "ORACLE_LINE", "ORACLE_CAPACITY", "MISS_EPS"]

#: Cache geometry the oracle scores with (small capacity so miss ratios
#: are not saturated at 0 on fuzz-sized programs).
ORACLE_LINE = 128
ORACLE_CAPACITY = 64

#: Slack when comparing predicted miss counts (they are exact integers,
#: but keep a tolerance so a future fractional predictor stays safe).
MISS_EPS = 1e-9


def check_lint(program: Program) -> Mismatch | None:
    """Run the lint engine over ``program`` and re-check its promises.

    A mismatch's ``where`` is one of ``fixit-state``, ``fixit-misses``,
    ``fixit-unverified``, ``fix-state``, ``fix-misses`` and ``crash``.
    """
    from repro.lint import apply_fixes
    from repro.lint.verifyfix import predicted_misses

    try:
        # One driver call: its first lint round is the lint of
        # ``program`` that the fix-it checks below read.
        outcome = apply_fixes(
            program, line=ORACLE_LINE, capacity=ORACLE_CAPACITY
        )
        base_misses, _ = predicted_misses(program, ORACLE_LINE, ORACLE_CAPACITY)
        for diag in outcome.initial.diagnostics:
            fixit = diag.fixit
            if fixit is None:
                continue
            if not fixit.verified:
                # Engine policy: unverified fix-its ride only on
                # error-severity diagnostics (the escalation path).
                if diag.severity != "error":
                    return Mismatch(
                        "fixit-unverified",
                        f"{diag.check_id}: unverified fix-it attached to a "
                        f"{diag.severity}-severity diagnostic",
                    )
                continue
            differing = state_difference(program, fixit.program)
            if differing:
                return Mismatch(
                    "fixit-state",
                    f"{diag.check_id} ({fixit.transform}): arrays differ: "
                    f"{differing}",
                )
            misses, _ = predicted_misses(
                fixit.program, ORACLE_LINE, ORACLE_CAPACITY
            )
            if misses > base_misses + MISS_EPS:
                return Mismatch(
                    "fixit-misses",
                    f"{diag.check_id} ({fixit.transform}): predicted misses "
                    f"{base_misses} -> {misses} (regression)",
                )

        if outcome.applied:
            differing = state_difference(program, outcome.program)
            if differing:
                return Mismatch(
                    "fix-state",
                    f"after {len(outcome.applied)} fix-it(s): arrays differ: "
                    f"{differing}",
                )
            final_misses, _ = predicted_misses(
                outcome.program, ORACLE_LINE, ORACLE_CAPACITY
            )
            if final_misses > base_misses + MISS_EPS:
                return Mismatch(
                    "fix-misses",
                    f"after {len(outcome.applied)} fix-it(s): predicted "
                    f"misses {base_misses} -> {final_misses} (regression)",
                )
    except ORACLE_FAILURES as exc:
        return Mismatch("crash", f"{type(exc).__name__}: {exc}")
    return None
