"""Check registry and shared analysis context (the lint pass manager).

Checks are small classes registered by decorating with :func:`register`;
the engine instantiates every registered check (or a selected subset)
and runs them over one :class:`LintContext`. The context owns the
expensive shared analyses — the analytic locality prediction, span
lookup tables — computed lazily and exactly once per linted program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, TypeVar

from repro.ir.nodes import Assign, Loop, Program
from repro.ir.span import Span
from repro.ir.visit import iter_loops, iter_statements
from repro.lint.diagnostics import Diagnostic
from repro.model.loopcost import CostModel
from repro.model.oracle import AnalyticOracle

if TYPE_CHECKING:
    from repro.locality.analytic import LocalityPrediction

__all__ = [
    "LintCheck",
    "LintContext",
    "register",
    "all_checks",
    "checks_for",
    "registered_checks",
]


class LintContext:
    """Shared state for one lint run over one program."""

    def __init__(
        self,
        program: Program,
        model: CostModel | None = None,
        line: int = 128,
        capacity: int = 512,
    ) -> None:
        self.program = program
        self.model = model or CostModel()
        self.line = line
        self.capacity = capacity
        #: The cost oracle every payoff score goes through — the same
        #: one the autotuner plans with, so lint and autotune rank
        #: candidates identically (and share the prediction memo cache).
        self.oracle = AnalyticOracle(line=line, capacity=capacity)
        self._prediction: LocalityPrediction | None = None
        self._stmt_spans: dict[int, Span] | None = None
        self._loop_spans: dict[str, Span] | None = None

    # ------------------------------------------------------------------
    # Shared lazy analyses
    # ------------------------------------------------------------------
    def prediction(self) -> "LocalityPrediction":
        """Analytic locality prediction of the (unmodified) program."""
        if self._prediction is None:
            self._prediction = self.oracle.prediction(self.program)
        return self._prediction

    def miss_ratio(self) -> float:
        """Predicted FA-LRU miss ratio at the reference capacity."""
        return self.prediction().miss_ratio_for_capacity(self.capacity)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def top_nests(self) -> Iterator[tuple[int, Loop]]:
        """Top-level loop nests with their body index."""
        for index, item in enumerate(self.program.body):
            if isinstance(item, Loop):
                yield index, item

    def innermost_loops(self, root: Loop) -> Iterator[Loop]:
        """Loops of the nest with no loop children (stride anchors)."""
        for loop in iter_loops(root):
            if not loop.inner_loops:
                yield loop

    def replace_top(self, index: int, nodes: "tuple[Loop | Assign, ...]") -> Program:
        """The program with ``body[index]`` replaced by ``nodes``."""
        body = list(self.program.body)
        body[index : index + 1] = list(nodes)
        return self.program.with_body(body)

    # ------------------------------------------------------------------
    # Span anchors
    # ------------------------------------------------------------------
    def stmt_span(self, sid: int) -> Span | None:
        if self._stmt_spans is None:
            self._stmt_spans = {
                s.sid: s.span for s in iter_statements(self.program) if s.span
            }
        return self._stmt_spans.get(sid)

    def loop_span(self, var: str) -> Span | None:
        if self._loop_spans is None:
            self._loop_spans = {
                l.var: l.span for l in iter_loops(self.program) if l.span
            }
        return self._loop_spans.get(var)


class LintCheck:
    """Base class for registered checks.

    Subclasses set the class attributes and implement :meth:`run`,
    returning diagnostics whose fix-its (if any) are *unverified*
    candidates — verification and scoring belong to the engine.
    """

    check_id: str = ""
    name: str = ""
    default_severity: str = "warning"
    summary: str = ""

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        raise NotImplementedError


_REGISTRY: dict[str, type[LintCheck]] = {}

C = TypeVar("C", bound=type[LintCheck])


def register(cls: C) -> C:
    """Class decorator adding a check to the global registry."""
    if not cls.check_id or not cls.name:
        raise ValueError(f"lint check {cls.__name__} must set check_id and name")
    if cls.check_id in _REGISTRY:
        raise ValueError(f"duplicate lint check id {cls.check_id}")
    _REGISTRY[cls.check_id] = cls
    return cls


def _ensure_loaded() -> None:
    # Importing the checks module populates the registry.
    from repro.lint import checks as _checks  # noqa: F401


def all_checks() -> list[LintCheck]:
    """One instance of every registered check, ordered by check id."""
    _ensure_loaded()
    return [_REGISTRY[cid]() for cid in sorted(_REGISTRY)]


def checks_for(selection: "tuple[str, ...] | None") -> list[LintCheck]:
    """Instances for a user selection of ids or names (None = all)."""
    _ensure_loaded()
    if not selection:
        return all_checks()
    by_name = {cls.name: cid for cid, cls in _REGISTRY.items()}
    out: list[LintCheck] = []
    for want in selection:
        cid = want if want in _REGISTRY else by_name.get(want, "")
        if not cid:
            known = sorted(_REGISTRY) + sorted(by_name)
            raise ValueError(f"unknown lint check {want!r} (known: {', '.join(known)})")
        out.append(_REGISTRY[cid]())
    return out


def registered_checks() -> dict[str, type[LintCheck]]:
    """The registry itself (id -> class), for rule-metadata export."""
    _ensure_loaded()
    return dict(_REGISTRY)
