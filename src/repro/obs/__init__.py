"""repro.obs — tracing, profiling, metrics, remarks, and run history.

The observability layer for the whole pipeline, in the spirit of LLVM's
``-Rpass`` remarks plus a lightweight span tracer and metrics registry:

* :class:`Tracer` / :class:`Span` — nested wall-time spans
  (``time.perf_counter``) over compilation and simulation phases; in
  profiling mode spans also carry CPU time, tracemalloc peak memory,
  and (pid, shard) provenance for process-pool merging;
* :class:`MetricsRegistry` — counters, gauges, and exact histograms
  (dependence tests by kind, RefGroup sizes, cache accesses/misses, ...),
  merged by plain addition from ``--jobs`` workers (:meth:`Obs.merge`);
* :class:`Remark` — structured applied/rejected/analysis records from
  every transformation pass;
* :class:`Obs` — the bundle installed via :func:`set_obs` /
  :func:`use_obs` and consulted by instrumented code via :func:`get_obs`;
* :mod:`repro.obs.export` — JSONL round-trip of the whole context;
* :mod:`repro.obs.chrometrace` — Chrome trace-event / Perfetto export;
* :mod:`repro.obs.profile` — the ``--profile`` phase-tree renderer;
* :mod:`repro.obs.ledger` / :mod:`repro.obs.report` — the persistent
  per-run ledger (``.repro/ledger.jsonl``) and the ``python -m repro
  report`` artifact built from it.

Disabled by default: :func:`get_obs` returns :data:`NULL_OBS`, whose
operations are shared no-ops, so instrumentation costs nothing unless a
real :class:`Obs` is installed. See ``docs/observability.md``.
"""

from repro.obs.chrometrace import chrome_trace, chrome_trace_events, write_chrome_trace
from repro.obs.context import NULL_OBS, Obs, get_obs, set_obs, use_obs
from repro.obs.export import ObsData, obs_records, read_jsonl, write_jsonl
from repro.obs.ledger import (
    LedgerError,
    append_record,
    make_record,
    phases_from_obs,
    read_ledger,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.profile import render_profile
from repro.obs.remarks import ANALYSIS, APPLIED, KINDS, MISSED, REJECTED, Remark
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "ANALYSIS",
    "APPLIED",
    "Counter",
    "Gauge",
    "Histogram",
    "KINDS",
    "LedgerError",
    "MISSED",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Obs",
    "ObsData",
    "REJECTED",
    "Remark",
    "Span",
    "Tracer",
    "append_record",
    "chrome_trace",
    "chrome_trace_events",
    "get_obs",
    "make_record",
    "obs_records",
    "phases_from_obs",
    "read_jsonl",
    "read_ledger",
    "render_profile",
    "set_obs",
    "use_obs",
    "write_chrome_trace",
    "write_jsonl",
]
