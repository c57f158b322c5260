"""Reusable trace consumers.

The block trace engine emits :class:`repro.exec.AccessBlock` batches; the
consumers here turn that stream into the measurements the experiments
need: access counters and stride histograms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_obs

__all__ = ["AccessCounter", "StrideHistogram"]


@dataclass
class AccessCounter:
    """Counts reads/writes, optionally per statement."""

    reads: int = 0
    writes: int = 0
    per_sid: Counter = field(default_factory=Counter)

    def on_block(self, block) -> None:
        """Counts one block's reads, writes and per-sid accesses."""
        writes = int(np.count_nonzero(block.writes))
        self.writes += writes
        self.reads += len(block) - writes
        sids, counts = np.unique(block.sids, return_counts=True)
        for sid, count in zip(sids.tolist(), counts.tolist()):
            self.per_sid[sid] += count

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def merge(self, other: "AccessCounter") -> "AccessCounter":
        """Fold another counter in (multi-nest / multi-run aggregation)."""
        self.reads += other.reads
        self.writes += other.writes
        self.per_sid.update(other.per_sid)
        return self

    def to_metrics(self, metrics=None, prefix: str = "trace") -> None:
        """Publish read/write totals into a metrics registry (default:
        the active observability context's)."""
        metrics = metrics if metrics is not None else get_obs().metrics
        metrics.counter(f"{prefix}.reads").inc(self.reads)
        metrics.counter(f"{prefix}.writes").inc(self.writes)


class StrideHistogram:
    """Histogram of successive address deltas (global stream stride).

    Unit-stride-dominated programs show a spike at ``+elem_size``; the
    non-contiguous programs the paper improves show column-sized strides.
    """

    def __init__(self):
        self.deltas: Counter = Counter()
        self._last: int | None = None

    def on_block(self, block) -> None:
        """Deltas of one block: the in-block diffs vectorize; only the
        seam to the previous block is handled scalar."""
        addresses = block.addresses
        if addresses.shape[0] == 0:
            return
        if self._last is not None:
            self.deltas[int(addresses[0]) - self._last] += 1
        if addresses.shape[0] > 1:
            values, counts = np.unique(np.diff(addresses), return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                self.deltas[value] += count
        self._last = int(addresses[-1])

    def top(self, n: int = 5) -> list[tuple[int, int]]:
        return self.deltas.most_common(n)

    def unit_fraction(self, elem_size: int = 8) -> float:
        total = sum(self.deltas.values())
        if not total:
            return 0.0
        return self.deltas.get(elem_size, 0) / total

    def merge(self, other: "StrideHistogram") -> "StrideHistogram":
        """Fold another histogram's deltas in. The seam between the two
        streams contributes no delta (the runs were independent)."""
        self.deltas.update(other.deltas)
        return self

    def to_metrics(self, metrics=None, prefix: str = "trace") -> None:
        """Publish the stride distribution into a metrics registry
        (default: the active observability context's)."""
        metrics = metrics if metrics is not None else get_obs().metrics
        histogram = metrics.histogram(f"{prefix}.stride")
        for delta, count in self.deltas.items():
            histogram.record(delta, count)
