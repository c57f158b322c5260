"""Trace-driven cache simulation substrate."""

from repro.cache.cache import BlockResult, CacheConfig, CacheStats, SetAssocCache
from repro.cache.hierarchy import (
    DEFAULT_TLB,
    Hierarchy,
    HierarchyResult,
    tlb_config,
)
from repro.cache.configs import ALL_CONFIGS, CACHE1, CACHE2, SPARC2, line_elements
from repro.cache.reuse import ReuseDistanceAnalyzer, ReuseProfile, reuse_profile

__all__ = [
    "ALL_CONFIGS",
    "BlockResult",
    "DEFAULT_TLB",
    "Hierarchy",
    "HierarchyResult",
    "tlb_config",
    "CACHE1",
    "CACHE2",
    "CacheConfig",
    "CacheStats",
    "SPARC2",
    "ReuseDistanceAnalyzer",
    "ReuseProfile",
    "SetAssocCache",
    "line_elements",
    "reuse_profile",
]
