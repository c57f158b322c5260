"""Shared memoization layer for the pipeline's analysis caches.

PR 3 introduced three ad-hoc memo dictionaries — the dependence
pair-test cache, the structural nest-dependence cache, and the per-model
loop-cost cache — each with its own clear-at-cap valve and hand-rolled
hit/miss counters. This module promotes them into one abstraction:

* :class:`MemoCache` — a bounded mapping with LRU eviction (instead of
  wholesale clearing at the cap, so a long autotuning run keeps its hot
  entries), per-cache ``<name>.hits`` / ``<name>.misses`` /
  ``<name>.evictions`` counters emitted through :mod:`repro.obs` (and
  therefore surfaced by every CLI's ``--metrics`` flag);
* a process-wide registry (:func:`registered_caches`,
  :func:`cache_stats`) covering the named module-level caches, so tools
  can inspect every cache at once.

The autotuner's canonical-nest prediction cache
(:mod:`repro.model.oracle`) builds on the same class, and the layer is
the seed of the planned compile-server result cache (ROADMAP item 1):
content-addressed keys in, evictable stats-exporting storage out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator

from repro.obs import get_obs

__all__ = ["MemoCache", "registered_caches", "cache_stats"]

#: Default size valve, matching the PR 3 caches it replaces.
DEFAULT_CAP = 4096

#: name -> cache, for the module-level shared caches only (per-instance
#: caches pass ``register=False`` so the registry never pins a dead
#: CostModel alive).
_REGISTRY: "OrderedDict[str, MemoCache]" = OrderedDict()


class MemoCache:
    """A bounded memo dictionary with LRU eviction and obs counters.

    ``get`` counts a hit or a miss (and refreshes recency); ``put``
    inserts and evicts the least-recently-used entry once ``cap`` is
    reached. Keys follow ordinary dict semantics (hash + equality), so
    structural keys built from frozen IR values behave exactly as they
    did in the plain-dict caches this class replaces.

    Every operation (data mutation *and* counter update) runs under one
    re-entrant lock, so a cache shared between threads — the compile
    server's result cache, or oracles queried from executor threads —
    conserves its counters exactly: ``hits + misses`` always equals the
    number of counted lookups, and eviction accounting never tears.
    Cross-*process* stats stay consistent because each worker's
    counters merge into the parent once (``Obs.merge``; see
    ``repro.experiments.common.run_sharded``).
    """

    __slots__ = ("name", "cap", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, name: str, cap: int = DEFAULT_CAP, register: bool = True):
        if cap <= 0:
            raise ValueError(f"cache cap must be positive, got {cap}")
        self.name = name
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        if register:
            _REGISTRY[name] = self

    # ------------------------------------------------------------------
    # Mapping surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: a hit refreshes the entry's recency."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                obs = get_obs()
                if obs.enabled:
                    obs.metrics.counter(f"{self.name}.misses").inc()
                return default
            self._data.move_to_end(key)
            self.hits += 1
            obs = get_obs()
            if obs.enabled:
                obs.metrics.counter(f"{self.name}.hits").inc()
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup; neither counters nor recency change."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU entries at the cap."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.cap:
                self._data.popitem(last=False)
                self.evictions += 1
                obs = get_obs()
                if obs.enabled:
                    obs.metrics.counter(f"{self.name}.evictions").inc()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        with self._lock:
            self._data.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "size": len(self._data),
                "cap": self.cap,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoCache({self.name!r}, size={len(self._data)}/{self.cap}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def registered_caches() -> dict[str, MemoCache]:
    """The shared module-level caches, keyed by name."""
    return dict(_REGISTRY)


def cache_stats() -> list[dict]:
    """One stats row per registered cache (for --metrics style dumps)."""
    return [cache.stats() for cache in _REGISTRY.values()]
