"""JSONL export / import of an observability context.

One record per line, each tagged with a ``type``:

``meta``
    ``{"type": "meta", "schema": 2, "tool": "repro.obs"}``
``span``
    ``{"type": "span", "id", "parent", "name", "start", "end",
    "duration", "attrs"}`` — times are ``perf_counter`` seconds.
    Profiling runs add ``cpu_start``/``cpu_end``/``mem_peak``; spans
    recorded in (or merged from) worker processes add ``pid``/``shard``.
    Fields that are ``None`` are omitted, so non-profiled traces keep
    the schema-1 shape plus the bumped version number.
``remark``
    the :meth:`repro.obs.remarks.Remark.to_dict` fields.
``counter`` / ``gauge``
    ``{"type", "name", "value"}``
``histogram``
    ``{"type", "name", "count", "total", "min", "max", "buckets"}``
    with bucket keys stringified (JSON objects key on strings).

:func:`read_jsonl` reconstructs the stream into an :class:`ObsData`
bundle of ``Span``/``Remark`` objects and a ``MetricsRegistry``, so a
trace file round-trips: ``write_jsonl(obs, p); read_jsonl(p)`` preserves
every remark, span relationship, and metric value. Schema-1 files (no
profiling fields) still read back cleanly, and record types this reader
does not know (such as the ``shards`` records of older traces) are
skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator

from repro.obs.context import Obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.remarks import Remark, _jsonable
from repro.obs.tracer import Span

__all__ = ["ObsData", "SCHEMA_VERSION", "obs_records", "write_jsonl", "read_jsonl"]

SCHEMA_VERSION = 2

#: optional Span fields serialized only when set (keeps records compact
#: and schema-1-shaped on non-profiled runs)
_SPAN_OPTIONAL = ("cpu_start", "cpu_end", "mem_peak", "pid", "shard")


def obs_records(obs: Obs) -> Iterator[dict]:
    """Yield every record of ``obs`` as a JSON-ready dict."""
    yield {"type": "meta", "schema": SCHEMA_VERSION, "tool": "repro.obs"}
    for span in obs.tracer.spans:
        record = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "duration": span.duration,
            "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
        }
        for key in _SPAN_OPTIONAL:
            value = getattr(span, key)
            if value is not None:
                record[key] = value
        yield record
    for remark in obs.remarks:
        yield {"type": "remark", **remark.to_dict()}
    snapshot = obs.metrics.snapshot()
    for name, value in snapshot["counters"].items():
        yield {"type": "counter", "name": name, "value": value}
    for name, value in snapshot["gauges"].items():
        yield {"type": "gauge", "name": name, "value": value}
    for name, data in snapshot["histograms"].items():
        yield {
            "type": "histogram",
            "name": name,
            "count": data["count"],
            "total": data["total"],
            "min": data["min"],
            "max": data["max"],
            "buckets": {str(k): v for k, v in data["buckets"].items()},
        }


def write_jsonl(obs: Obs, destination: "str | IO[str]") -> int:
    """Write ``obs`` as JSONL to a path or open text file; returns the
    record count."""
    count = 0

    def _dump(handle: IO[str]) -> None:
        nonlocal count
        for record in obs_records(obs):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1

    if isinstance(destination, str):
        with open(destination, "w") as handle:
            _dump(handle)
    else:
        _dump(destination)
    return count


@dataclass
class ObsData:
    """A trace file read back into memory."""

    meta: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    remarks: list[Remark] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def spans_by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def read_jsonl(source: "str | IO[str]") -> ObsData:
    """Parse a trace file back into spans, remarks, and metrics."""
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()

    data = ObsData()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            data.meta = record
        elif kind == "span":
            data.spans.append(
                Span(
                    name=record["name"],
                    span_id=record["id"],
                    parent_id=record.get("parent"),
                    start=record["start"],
                    end=record.get("end"),
                    attrs=record.get("attrs") or {},
                    cpu_start=record.get("cpu_start"),
                    cpu_end=record.get("cpu_end"),
                    mem_peak=record.get("mem_peak"),
                    pid=record.get("pid"),
                    shard=record.get("shard"),
                )
            )
        elif kind == "remark":
            data.remarks.append(Remark.from_dict(record))
        elif kind == "counter":
            data.metrics.counter(record["name"]).inc(record["value"])
        elif kind == "gauge":
            data.metrics.gauge(record["name"]).set(record["value"])
        elif kind == "histogram":
            histogram = data.metrics.histogram(record["name"])
            for key, count in (record.get("buckets") or {}).items():
                histogram.record(_bucket_key(key), count)
    return data


def _bucket_key(key: str):
    """Histogram bucket keys are numbers stringified by JSON."""
    try:
        return int(key)
    except ValueError:
        try:
            return float(key)
        except ValueError:
            return key
