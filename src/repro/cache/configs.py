"""Cache geometries used throughout the paper's evaluation.

* ``CACHE1`` — IBM RS/6000 model 540 data cache: 64KB, 4-way set
  associative, 128-byte lines (Tables 3 and 4).
* ``CACHE2`` — Intel i860 data cache: 8KB, 2-way, 32-byte lines (Table 4).
* ``SPARC2`` — Sun Sparc2: 64KB direct-mapped, 32-byte lines (Figure 2
  and Table 1 machines; geometry from contemporary documentation).
"""

from __future__ import annotations

from repro.cache.cache import CacheConfig

__all__ = ["CACHE1", "CACHE2", "SPARC2", "ALL_CONFIGS", "line_elements"]

CACHE1 = CacheConfig("cache1-rs6000", size=64 * 1024, assoc=4, line=128)
CACHE2 = CacheConfig("cache2-i860", size=8 * 1024, assoc=2, line=32)
SPARC2 = CacheConfig("sparc2", size=64 * 1024, assoc=1, line=32)

ALL_CONFIGS = (CACHE1, CACHE2, SPARC2)


def line_elements(config: CacheConfig) -> int:
    """Cache line size in 8-byte array elements (the cost model's ``cls``)."""
    return max(config.line // 8, 1)
