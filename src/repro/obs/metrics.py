"""Metrics registry: named counters, gauges, and value histograms.

Instruments are created on demand and identified by dotted names
(``dep.test.siv``, ``cache.misses``, ``model.refgroup.size``). All values
are exact — this is bookkeeping for a deterministic simulator, not a
sampling system — so registries from independent runs can be merged
loss-free with :meth:`MetricsRegistry.merge` (used by multi-nest /
multi-kernel aggregation).

The disabled path is :data:`NULL_METRICS`: every lookup returns one
shared instrument whose mutators do nothing.
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value (e.g. a configured cache size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | int | None = None

    def set(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Exact distribution of recorded values (count per distinct value).

    Values are expected to be small discrete quantities — RefGroup sizes,
    dependence-vector counts, stride deltas — so per-value buckets stay
    compact and merges are exact.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: float | int | None = None
        self.max: float | int | None = None
        self.buckets: dict = {}

    def record(self, value, count: int = 1) -> None:
        self.count += count
        self.total += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.buckets[value] = self.buckets.get(value, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        for value, count in other.buckets.items():
            self.record(value, count)
        return self

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, mean={self.mean:.3g}, "
            f"min={self.min}, max={self.max})"
        )


class MetricsRegistry:
    """Holds every instrument created during one observed run."""

    enabled = True

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- creation-on-first-use lookups ---------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (counters add, gauges
        take the other's value, histograms merge bucket-wise)."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)
        return self

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (JSON-ready)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": dict(sorted(h.buckets.items(), key=lambda kv: str(kv[0]))),
                }
                for n, h in sorted(self.histograms.items())
            },
        }

    def __iter__(self) -> Iterator:
        yield from self.counters.values()
        yield from self.gauges.values()
        yield from self.histograms.values()

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


class _NullInstrument:
    """Shared stand-in for all instrument kinds; mutators are no-ops."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0
    buckets: Mapping = {}

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def record(self, value, count: int = 1) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every lookup returns the shared null instrument."""

    enabled = False
    counters: Mapping = {}
    gauges: Mapping = {}
    histograms: Mapping = {}

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def merge(self, other) -> "NullMetrics":
        return self

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_METRICS = NullMetrics()
