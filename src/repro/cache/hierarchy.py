"""Multi-level memory hierarchy simulation.

The paper's framework step 2 notes that "higher degrees of tiling can be
applied to exploit multi-level caches, the TLB, etc." — this module
provides the measurement substrate: a stack of set-associative levels
(L1, L2, ..., and optionally a TLB modelled as a page-granular cache)
fed by one address stream. An access probes L1; on a miss it falls
through to the next level, and so on. The TLB is probed on every access
independently (address translation happens regardless of cache hits).

Both the scalar :meth:`Hierarchy.access` and the batched
:meth:`Hierarchy.access_block` drive the same per-level state and produce
identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cache import CacheConfig, CacheStats, SetAssocCache
from repro.errors import ReproError

__all__ = [
    "TLB_LEVEL_NAME",
    "tlb_config",
    "Hierarchy",
    "HierarchyResult",
    "DEFAULT_TLB",
]

#: Reserved level name for the TLB entry. Deliberately not a plain
#: identifier so a user-defined cache level can never collide with it in
#: :attr:`HierarchyResult.levels`.
TLB_LEVEL_NAME = "<tlb>"


def tlb_config(entries: int = 64, page: int = 4096) -> CacheConfig:
    """A TLB as a page-granular fully-associative cache config."""
    return CacheConfig(TLB_LEVEL_NAME, size=entries * page, assoc=entries, line=page)


DEFAULT_TLB = tlb_config()


@dataclass
class HierarchyResult:
    """Per-level statistics of one simulation."""

    levels: dict[str, CacheStats]
    tlb: CacheStats | None

    def hit_rate(self, level: str) -> float:
        return self.levels[level].hit_rate()

    def memory_cycles(
        self, penalties: dict[str, int], tlb_penalty: int = 0
    ) -> int:
        """Cycles spent below each level: ``misses(level) * penalty``."""
        total = 0
        for name, stats in self.levels.items():
            total += stats.misses * penalties.get(name, 0)
        if self.tlb is not None and tlb_penalty:
            total += self.tlb.misses * tlb_penalty
        return total


class Hierarchy:
    """An inclusive-probe multi-level cache stack."""

    def __init__(
        self,
        configs: list[CacheConfig],
        tlb: CacheConfig | None = None,
    ):
        if not configs:
            raise ValueError("hierarchy needs at least one level")
        for config in configs:
            if config.name == TLB_LEVEL_NAME:
                raise ReproError(
                    f"cache level name {config.name!r} is reserved for the TLB"
                )
        if tlb is not None and any(c.name == tlb.name for c in configs):
            raise ReproError(
                f"cache level name {tlb.name!r} collides with the TLB entry"
            )
        self._levels = [SetAssocCache(config) for config in configs]
        self._tlb = SetAssocCache(tlb) if tlb is not None else None

    def access(self, address: int, size: int = 1, write: bool = False) -> int:
        """Access the stack; returns the level index that hit (or
        ``len(levels)`` for memory)."""
        if self._tlb is not None:
            self._tlb.access(address, size, write)
        for index, level in enumerate(self._levels):
            if level.access(address, size, write):
                return index
        return len(self._levels)

    def access_block(self, addresses, sizes=None) -> np.ndarray:
        """Batched :meth:`access`: returns the hitting level per access.

        Each level sees exactly the accesses that missed every level above
        it, in stream order, so statistics match per-access probing
        bit-for-bit.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = int(addresses.shape[0])
        if sizes is not None and not np.isscalar(sizes):
            sizes = np.asarray(sizes, dtype=np.int64)
        if self._tlb is not None and n:
            self._tlb.access_block(addresses, sizes)
        level_of = np.full(n, len(self._levels), dtype=np.int64)
        remaining = np.arange(n)
        cur_addresses = addresses
        cur_sizes = sizes
        for index, level in enumerate(self._levels):
            if cur_addresses.shape[0] == 0:
                break
            result = level.access_block(cur_addresses, cur_sizes)
            level_of[remaining[result.hits]] = index
            miss = ~result.hits
            remaining = remaining[miss]
            cur_addresses = cur_addresses[miss]
            if cur_sizes is not None and not np.isscalar(cur_sizes):
                cur_sizes = cur_sizes[miss]
        return level_of

    @property
    def result(self) -> HierarchyResult:
        return HierarchyResult(
            levels={
                level.config.name: level.stats for level in self._levels
            },
            tlb=self._tlb.stats if self._tlb is not None else None,
        )
