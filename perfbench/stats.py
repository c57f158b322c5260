"""Metric table and the statistics every workload reports.

Timing metrics are built so that two runs of the same code agree:

* per-program medians, combined by a geometric mean, so no single
  program and no single slow sample decides the number;
* pooled percentiles only over *complete* passes, where every program
  contributes the same number of samples, at a percentile level fixed
  per workload (see :func:`tail_level`), so the level never flips
  between runs that happen to complete a different number of passes
  (a workload with too few passes for that takes its percentiles over
  the per-program medians);
* CPU time for in-process work, which the machine's other tenants
  disturb far less than wall time;
* every time scaled to a reference machine speed (:class:`SpeedProbe`).
  On a shared host the speed of one CPU shifts by 20% or more for tens
  of seconds at a time, as its neighbours come and go. Fixed calibration
  loops, timed between ops all through the run, slow and speed up with
  it, so ``time * REF_SPIN_MS / loop_time`` keeps what the code costs and
  drops what the machine did. The loops call no ``repro`` code and take
  one sample after an op whatever the op's length; a change to the
  program moves them only through the cache state it leaves behind.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import sys
import time

#: name -> (unit, better). Must match ``end_to_end`` in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_ms_geomean": ("ms", "lower"),
    "cpu_ms_p50": ("ms", "lower"),
    "cpu_ms_tail": ("ms", "lower"),
    "ops_per_cpu_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_tail": ("ms", "lower"),
    "req_per_s": ("1/s", "higher"),
    "pred_miss_gain_geomean": ("x", "higher"),
    "sim_speedup_geomean": ("x", "higher"),
    "tune_miss_gain_geomean": ("x", "higher"),
    "pred_err_pp_max": ("pp", "lower"),
    "fixits_verified": ("count", "higher"),
}

#: name -> (unit, better). Must match ``per_layer`` in BENCHMARK.json.
PER_LAYER = {
    "frontend.parse.self_ms": ("ms", "lower"),
    "frontend.parse.kb_per_s": ("KB/s", "higher"),
    "ir.validate.self_ms": ("ms", "lower"),
    "ir.pretty.self_ms": ("ms", "lower"),
    "ir.stmts_after": ("count", "lower"),
    "ir.loops_after": ("count", "lower"),
    "dependence.region.self_ms": ("ms", "lower"),
    "dependence.pair_tests": ("count", "lower"),
    "dependence.cache_hit_ratio": ("ratio", "higher"),
    "model.self_ms": ("ms", "lower"),
    "model.nestinfo.misses": ("count", "lower"),
    "model.nestinfo.hit_ratio": ("ratio", "higher"),
    "model.oracle.hit_ratio": ("ratio", "higher"),
    "transforms.compound.self_ms": ("ms", "lower"),
    "transforms.permuted": ("count", "higher"),
    "transforms.fused": ("count", "higher"),
    "transforms.distributed": ("count", "higher"),
    "transforms.reversed": ("count", "higher"),
    "locality.predict.self_ms": ("ms", "lower"),
    "locality.predict.calls": ("count", "lower"),
    "exec.simulate.self_ms": ("ms", "lower"),
    "exec.blocktrace.compile.self_ms": ("ms", "lower"),
    "exec.blocktrace.run.self_ms": ("ms", "lower"),
    "exec.accesses": ("count", "lower"),
    "exec.blocks": ("count", "higher"),
    "exec.block_fallbacks": ("count", "lower"),
    "cache.access_block.self_ms": ("ms", "lower"),
    "cache.accesses_per_s": ("1/s", "higher"),
    "cache.miss_ratio": ("ratio", "lower"),
    "cache.reuse_profile.self_ms": ("ms", "lower"),
    "cache.reuse_profile.accesses": ("count", "lower"),
    "lint.program.self_ms": ("ms", "lower"),
    "lint.diagnostics": ("count", "higher"),
    "lint.fixit_verified_ratio": ("ratio", "higher"),
    "verify.depforce.self_ms": ("ms", "lower"),
    "verify.depforce.calls": ("count", "lower"),
    "verify.state.self_ms": ("ms", "lower"),
    "autotune.self_ms": ("ms", "lower"),
    "autotune.evals": ("count", "lower"),
    "autotune.budget_exhausted": ("count", "lower"),
    "server.execute.self_ms": ("ms", "lower"),
    "server.elapsed_ms_p50": ("ms", "lower"),
    "server.elapsed_ms_tail": ("ms", "lower"),
    "server.overhead_ms_p50": ("ms", "lower"),
    "server.cache.hit_ratio": ("ratio", "higher"),
    "server.singleflight.coalesced": ("count", "higher"),
    "server.non200": ("count", "lower"),
    "op.unspanned_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: The quality metrics; a workload that does not compute one reports
#: NEUTRAL for it (the contract wants every metric on every workload and
#: no metric that reads 0).
QUALITY = (
    "pred_miss_gain_geomean",
    "sim_speedup_geomean",
    "tune_miss_gain_geomean",
    "pred_err_pp_max",
    "fixits_verified",
)
NEUTRAL = 1.0

#: Percentile levels tried for a tail, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must have at least this many samples beyond it.
TAIL_SUPPORT = 10


def percentile(values, level: float) -> float:
    """Linear-interpolation percentile (``level`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * level / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (rank - low))


def tail_level(samples: int) -> float:
    """The highest level in TAIL_LEVELS with TAIL_SUPPORT samples beyond
    it; 50 when even the median lacks that support."""
    for level in TAIL_LEVELS:
        if samples * (100.0 - level) / 100.0 >= TAIL_SUPPORT:
            return level
    return 50.0


def geomean(values) -> float:
    data = list(values)
    if not data:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    data = list(values)
    if len(data) < 2:
        value = float(data[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def per_program_medians(samples) -> dict[str, float]:
    """``samples``: iterable of (program, value) -> program -> median."""
    grouped: dict[str, list[float]] = {}
    for program, value in samples:
        grouped.setdefault(program, []).append(value)
    return {name: statistics.median(vals) for name, vals in grouped.items()}


def pooled(values, design_samples: int) -> tuple[float, float, float, int]:
    """Median and tail of a balanced pool.

    Returns ``(p50, tail, tail_level, n)``. The tail level comes from
    ``design_samples`` (the pool size a run is built to reach), or from
    the actual size when a run fell short of it.
    """
    data = list(values)
    level = tail_level(min(len(data), design_samples))
    return percentile(data, 50.0), percentile(data, level), level, len(data)


#: The calibration loops' geometric-mean CPU ms at the reference speed:
#: the median reading on a 2-vCPU 2.1 GHz x86 virtual machine, so that
#: scaled times read as CPU ms on that machine.
REF_SPIN_MS = 1.5

#: Seconds between calibration samples.
SAMPLE_EVERY_S = 0.1

#: Samples nearest in time to a measured interval that set its factor.
NEAREST_SAMPLES = 9


class SpeedProbe:
    """Samples three fixed calibration loops, at most once each
    SAMPLE_EVERY_S and never twice in a row. :meth:`factor` scales a time
    measured in the run to the reference speed (divide rates by it), from
    the NEAREST_SAMPLES samples taken nearest to when the time was
    measured, so that it follows shifts in machine speed during the run.

    The loops stand for the three kinds of work the pipeline does: a tight
    interpreter loop, lookups scattered over a 16 MB heap of Python
    objects, and NumPy sorting and gathering. Other tenants slow each kind
    differently (clock speed, shared caches, memory bandwidth).

    Each :meth:`sample_if_due` call takes one sample at most, so every
    sample follows the same kind of program work, with the caches as the
    program left them, whether the ops are short or long. Back-to-back
    samples would run on caches the previous sample warmed and read up to
    twice as fast, so a run of long ops, each followed by a burst of such
    samples, would scale its times differently from a run of short ones.

    ``footprint_mb`` is the resident memory the probe itself holds, so
    that a peak-memory figure can leave it out.
    """

    def __init__(self) -> None:
        import random

        import numpy

        rss0 = current_rss_mb()
        rng = random.Random(0)
        self._heap = [str(i) for i in range(1 << 18)]
        self._index = {key: i for i, key in enumerate(self._heap[: 1 << 16])}
        self._picks = [rng.randrange(1 << 18) for _ in range(2000)]
        self._keys = [self._heap[rng.randrange(1 << 16)] for _ in range(2000)]
        self._array = numpy.random.default_rng(0).integers(0, 1 << 20, size=1 << 13)
        self.footprint_mb = max(current_rss_mb() - rss0, 0.0)
        self.times: list[float] = []
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self) -> tuple[float, float, float]:
        import numpy

        clock = time.thread_time
        start = clock()
        total = 0
        for i in range(8000):
            total += i * i % 7
        loop = clock()
        for i in self._picks:
            total += len(self._heap[i])
        for key in self._keys:
            total += self._index[key]
        heap = clock()
        ordered = numpy.sort(self._array)
        numpy.unique(ordered // 8)
        numpy.cumsum(self._array[::-1])
        self._array[ordered & 0x1FFF].sum()
        end = clock()
        return (loop - start) * 1e3, (heap - loop) * 1e3, (end - heap) * 1e3

    def sample_if_due(self) -> None:
        """Take one sample if SAMPLE_EVERY_S has passed since the last."""
        now = time.perf_counter()
        if self.times and now - self.times[-1] < SAMPLE_EVERY_S:
            return
        self.times.append(now)
        # Hold the interpreter lock through the sample, so that the
        # program's other threads (serve) cannot cut into it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            self.samples.append(self._sample())
        finally:
            sys.setswitchinterval(interval)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """REF_SPIN_MS over the loops' geomean near [start, end] (the
        whole run when no interval is given)."""
        window = self.samples
        if start is not None and len(window) > NEAREST_SAMPLES:
            middle = (start + (start if end is None else end)) / 2.0
            at = bisect.bisect_left(self.times, middle)
            low = min(max(at - NEAREST_SAMPLES // 2, 0), len(window) - NEAREST_SAMPLES)
            window = window[low : low + NEAREST_SAMPLES]
        medians = [statistics.median(column) for column in zip(*window)]
        return REF_SPIN_MS / geomean(medians)


def current_rss_mb() -> float:
    """The process's resident memory now, in MB (Linux)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def normalize(value: float, unit: str, factor: float) -> float:
    """Scale a metric to the reference speed according to its unit."""
    if unit in ("ms", "s"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value
