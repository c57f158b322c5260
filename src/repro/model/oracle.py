"""Cost oracles: one interface answering "how good is this program?".

Every planner in the pipeline used to rank candidates its own way — the
compound driver through :meth:`CostModel.memory_order`, the lint engine
through a private predicted-misses helper, and simulation-driven
comparisons through the trace analyzer. This module gives them one
protocol:

* :class:`CostOracle` — ``cost(program) -> OracleCost`` plus the
  paper's ``memory_order`` ranking, so a planner can both score whole
  candidate programs and ask for a desired loop order;
* :class:`AnalyticOracle` — the trace-free analytic predictor
  (:mod:`repro.locality.analytic`): milliseconds per candidate, the
  default planning oracle for autotuning and lint payoff scoring;
* :class:`SimulationOracle` — exact LRU stack-distance ground truth
  (:mod:`repro.cache.reuse`): seconds per candidate, reserved for final
  top-k reranks and regret measurement.

Both implementations memoize on the *canonicalized* program — the
round-trippable pretty-printed text, which captures parameters, array
declarations, and loop structure — through the shared
:class:`repro.model.memo.MemoCache` layer, so lint, autotune, and ad-hoc
scoring reuse each other's evaluations within a process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.ir.nodes import Loop, Program
from repro.ir.pretty import pretty_program
from repro.model.loopcost import CostModel
from repro.model.memo import MemoCache

if TYPE_CHECKING:
    from repro.cache.reuse import ReuseProfile
    from repro.locality.analytic import LocalityPrediction

__all__ = [
    "OracleCost",
    "CostOracle",
    "AnalyticOracle",
    "SimulationOracle",
    "canonical_key",
]


def canonical_key(program: Program) -> str:
    """Content key of a program: its round-trippable pretty text.

    Two programs with the same key are indistinguishable to every
    analysis (parameters, declarations, and loop structure all print),
    so oracle results may be shared between them.
    """
    return pretty_program(program)


@dataclass(frozen=True)
class OracleCost:
    """One oracle verdict: predicted/measured misses over accesses."""

    misses: float
    accesses: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def better_than(self, other: "OracleCost", eps: float = 1e-12) -> bool:
        """Strictly fewer misses (the planner's primary objective)."""
        return self.misses < other.misses - eps


@runtime_checkable
class CostOracle(Protocol):
    """What a planner needs: whole-program cost + desired loop order."""

    name: str
    model: CostModel

    def cost(self, program: Program) -> OracleCost:
        """Misses/accesses of the whole program at the oracle's geometry."""
        ...

    def memory_order(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> list[str]:
        """Desired loop order, outermost first (paper §4.1)."""
        ...


#: Shared across AnalyticOracle instances: (canonical text, line) ->
#: LocalityPrediction. Predictions are capacity-agnostic, so every
#: capacity query reuses one entry.
_PREDICTION_CACHE = MemoCache("oracle.analytic.cache", cap=2048)

#: Shared across SimulationOracle instances: (canonical text, line,
#: access cap) -> ReuseProfile. Profiles are large-ish, keep few.
_PROFILE_CACHE = MemoCache("oracle.sim.cache", cap=64)


@dataclass
class AnalyticOracle:
    """Trace-free predictor as the cost oracle (the planning default).

    ``line`` is the cache line size in bytes; ``capacity`` the FA-LRU
    capacity in lines at which misses are counted. ``memory_order``
    delegates to the paper's LoopCost ranking — itself analytic — so a
    compound run driven by this oracle reproduces the paper's decisions
    while candidate *scoring* uses the reuse-distance model.
    """

    model: CostModel = field(default_factory=CostModel)
    line: int = 128
    capacity: int = 512

    name = "analytic"

    def prediction(self, program: Program) -> "LocalityPrediction":
        key = (canonical_key(program), self.line)
        hit = _PREDICTION_CACHE.get(key)
        if hit is not None:
            return hit
        from repro.locality.analytic import predict_locality

        prediction = predict_locality(program, line=self.line)
        _PREDICTION_CACHE.put(key, prediction)
        return prediction

    def cost(self, program: Program) -> OracleCost:
        prediction = self.prediction(program)
        return OracleCost(
            misses=float(prediction.misses_for_capacity(self.capacity)),
            accesses=prediction.accesses,
        )

    def memory_order(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> list[str]:
        return self.model.memory_order(root, outer)


@dataclass
class SimulationOracle:
    """Exact trace-driven ground truth (slow; rerank/regret only)."""

    model: CostModel = field(default_factory=CostModel)
    line: int = 128
    capacity: int = 512

    name = "simulation"

    def profile(self, program: Program) -> "ReuseProfile":
        key = (canonical_key(program), self.line)
        hit = _PROFILE_CACHE.get(key)
        if hit is not None:
            return hit
        from repro.cache.reuse import reuse_profile

        profile = reuse_profile(program, line=self.line)
        _PROFILE_CACHE.put(key, profile)
        return profile

    def cost(self, program: Program) -> OracleCost:
        profile = self.profile(program)
        return OracleCost(
            misses=float(profile.accesses - profile.hits_for_capacity(self.capacity)),
            accesses=profile.accesses,
        )

    def memory_order(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> list[str]:
        return self.model.memory_order(root, outer)
