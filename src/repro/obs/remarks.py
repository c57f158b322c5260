"""Optimization remarks: machine-readable transformation decisions.

Modelled on LLVM's ``-Rpass`` / ``-Rpass-missed`` remark stream: every
pass that applies, rejects, or merely analyzes a transformation emits a
:class:`Remark` naming the pass, the decision kind, the nest/loops
involved, and — for rejections — the reason (``dependences``, ``bounds``,
``fusion-preventing``, ``capacity``, ...). Remarks are deterministic
(no timestamps), so ``--explain`` output is stable across runs and
suitable for golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Remark", "APPLIED", "REJECTED", "ANALYSIS", "MISSED", "KINDS"]

APPLIED = "applied"  # the pass transformed the code
REJECTED = "rejected"  # the pass tried and gave up (reason says why)
ANALYSIS = "analysis"  # informational: a fact the pass established
MISSED = "missed"  # a known opportunity the pass chose not to take
KINDS = (APPLIED, REJECTED, ANALYSIS, MISSED)


@dataclass(frozen=True)
class Remark:
    """One transformation decision.

    Attributes:
        pass_name: emitting pass (``permute``, ``fusion``, ``distribute``,
            ``compound``, ...).
        kind: one of :data:`KINDS`.
        message: human-readable one-liner.
        nest: driver nest index when the decision is nest-scoped.
        loops: loop index variables involved, outermost first.
        reason: rejection/miss reason slug, None otherwise.
        data: extra key/value detail, stored as a sorted tuple of pairs
            so remarks stay hashable and render deterministically.
    """

    pass_name: str
    kind: str
    message: str
    nest: int | None = None
    loops: tuple[str, ...] = ()
    reason: str | None = None
    data: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for name, value in self.data:
            if name == key:
                return value
        return default

    def format(self) -> str:
        """Stable one-line rendering (used by ``--explain``)."""
        out = f"{self.pass_name}:{self.kind}"
        if self.nest is not None:
            out += f" nest={self.nest}"
        if self.loops:
            out += " [" + " ".join(self.loops) + "]"
        out += f": {self.message}"
        if self.reason:
            out += f" (reason: {self.reason})"
        if self.data:
            out += " {" + ", ".join(
                f"{k}={_fmt_value(v)}" for k, v in self.data
            ) + "}"
        return out

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "kind": self.kind,
            "message": self.message,
            "nest": self.nest,
            "loops": list(self.loops),
            "reason": self.reason,
            "data": {k: _jsonable(v) for k, v in self.data},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Remark":
        data = record.get("data") or {}
        return cls(
            pass_name=record["pass"],
            kind=record["kind"],
            message=record["message"],
            nest=record.get("nest"),
            loops=tuple(record.get("loops") or ()),
            reason=record.get("reason"),
            data=tuple(sorted((k, _tupled(v)) for k, v in data.items())),
        )

    def __str__(self) -> str:
        return self.format()


def _fmt_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _jsonable(value):
    """Coerce remark data to JSON-representable values."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _tupled(value):
    """Inverse-ish of :func:`_jsonable`: lists come back as tuples."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value
