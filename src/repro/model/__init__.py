"""The paper's cache cost model: RefGroup, RefCost, LoopCost, memory order.

Also home of the cost oracles (:mod:`repro.model.oracle`), which answer
"how good is this program?" with an analytic-predictor implementation
(planning) and a cache-simulation implementation (ground truth), plus
the shared memo-cache layer (:mod:`repro.model.memo`).
"""

from repro.model.loopcost import CONSECUTIVE, INVARIANT, NONE, CostModel
from repro.model.memo import MemoCache, cache_stats, registered_caches
from repro.model.nest import NestInfo, build_nest_info, trip_poly
from repro.model.oracle import AnalyticOracle, OracleCost, SimulationOracle, canonical_key
from repro.model.refgroup import GROUP_TEMPORAL_MAX_DISTANCE, RefGroup, ref_groups

__all__ = [
    "AnalyticOracle",
    "CONSECUTIVE",
    "CostModel",
    "GROUP_TEMPORAL_MAX_DISTANCE",
    "INVARIANT",
    "MemoCache",
    "NONE",
    "NestInfo",
    "OracleCost",
    "RefGroup",
    "SimulationOracle",
    "build_nest_info",
    "cache_stats",
    "canonical_key",
    "ref_groups",
    "registered_caches",
    "trip_poly",
]
