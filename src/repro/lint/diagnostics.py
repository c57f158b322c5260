"""Diagnostic and fix-it records emitted by the lint checks.

A :class:`Diagnostic` is one finding: a stable check id, a severity, an
optional source span (anchored on the frontend's parse tree), a human
message, and — when a repair is mechanically expressible — a
:class:`FixIt` binding the finding to one of the existing transforms.

Fix-its are *candidates* until the engine verifies them: the engine
applies the transform with legality checking on, cross-checks the result
against the brute-force dependence/execution oracles in
:mod:`repro.verify`, and scores the repair with the analytic miss-ratio
predictor. Only then is ``verified`` set and the payoff filled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.ir.nodes import Program
from repro.ir.span import Span

if TYPE_CHECKING:
    from repro.transforms.recipe import Recipe

__all__ = [
    "Diagnostic",
    "FixIt",
    "SEVERITIES",
    "SEVERITY_RANK",
    "ERROR",
    "WARNING",
    "NOTE",
]

#: Severity levels, mirroring SARIF's ``error`` / ``warning`` / ``note``.
ERROR = "error"
WARNING = "warning"
NOTE = "note"
SEVERITIES = (ERROR, WARNING, NOTE)
SEVERITY_RANK: dict[str, int] = {ERROR: 0, WARNING: 1, NOTE: 2}


@dataclass(frozen=True)
class FixIt:
    """A machine-applicable repair bound to an existing transform.

    ``transform`` names the rewrite family (``permute``, ``fuse``,
    ``distribute``, ``scalar-replace``, ``tile``); ``program`` is the
    whole transformed program. ``verified`` is set by the engine once the
    repair has passed legality plus the brute-force oracle;
    ``verification`` carries the outcome slug (``oracle`` on success, a
    failure slug otherwise). ``miss_before``/``miss_after`` are analytic
    FA-LRU miss ratios at the engine's reference capacity. ``recipe``
    is how ``program`` was built from the linted program; verification
    replays it at capped trip counts. It is not part of the output.
    """

    transform: str
    description: str
    program: Program
    verified: bool = False
    verification: str = "unverified"
    miss_before: float = 0.0
    miss_after: float = 0.0
    recipe: Recipe | None = None

    @property
    def payoff(self) -> float:
        """Predicted miss-ratio reduction (positive = improvement)."""
        return self.miss_before - self.miss_after

    def to_dict(self) -> dict[str, Any]:
        return {
            "transform": self.transform,
            "description": self.description,
            "verified": self.verified,
            "verification": self.verification,
            "miss_before": round(self.miss_before, 6),
            "miss_after": round(self.miss_after, 6),
            "payoff": round(self.payoff, 6),
        }


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding from a lint check."""

    check_id: str
    check_name: str
    severity: str
    message: str
    span: Span | None = None
    loops: tuple[str, ...] = ()
    array: str | None = None
    data: Mapping[str, Any] = field(default_factory=dict)
    fixit: FixIt | None = None

    @property
    def payoff(self) -> float:
        """Predicted payoff of the attached verified fix-it (0 if none)."""
        if self.fixit is not None and self.fixit.verified:
            return self.fixit.payoff
        return 0.0

    def sort_key(self) -> tuple[int, float, str, tuple[int, int]]:
        """Most severe first, then by predicted payoff, then stable."""
        position = (self.span.line, self.span.column) if self.span else (0, 0)
        return (
            SEVERITY_RANK.get(self.severity, len(SEVERITIES)),
            -self.payoff,
            self.check_id,
            position,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check_id": self.check_id,
            "check": self.check_name,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = {
                "line": self.span.line,
                "column": self.span.column,
                "end_line": self.span.end_line,
                "end_column": self.span.end_column,
            }
        if self.loops:
            out["loops"] = list(self.loops)
        if self.array:
            out["array"] = self.array
        if self.data:
            out["data"] = {k: self.data[k] for k in sorted(self.data)}
        if self.fixit is not None:
            out["fixit"] = self.fixit.to_dict()
        return out
