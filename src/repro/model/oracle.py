"""Cost oracles: one answer to "how good is this program?".

Lint payoff scoring and autotune candidate ranking both score whole
programs through ``cost(program) -> OracleCost``:

* :class:`AnalyticOracle` — the trace-free analytic predictor
  (:mod:`repro.locality.analytic`): milliseconds per candidate, the
  default planning oracle for autotuning and lint payoff scoring;
* :class:`SimulationOracle` — exact LRU stack-distance ground truth
  (:mod:`repro.cache.reuse`): seconds per candidate, reserved for final
  top-k reranks and regret measurement.

Desired loop orders are not an oracle question: planners ask
:meth:`repro.model.CostModel.memory_order` (the paper's LoopCost
ranking) directly.

Both implementations memoize on the *canonicalized* program — the
round-trippable pretty-printed text, which captures parameters, array
declarations, and loop structure — through the shared
:class:`repro.model.memo.MemoCache` layer, so lint, autotune, and ad-hoc
scoring reuse each other's evaluations within a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ir.nodes import Program
from repro.ir.pretty import pretty_program
from repro.model.memo import MemoCache

if TYPE_CHECKING:
    from repro.cache.reuse import ReuseProfile
    from repro.locality.analytic import LocalityPrediction

__all__ = [
    "OracleCost",
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
    capacity in lines at which misses are counted.
    """

    line: int = 128
    capacity: int = 512

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


@dataclass
class SimulationOracle:
    """Exact trace-driven ground truth (slow; rerank/regret only)."""

    line: int = 128
    capacity: int = 512

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
