"""Plain-text rendering: experiment tables plus observability output
(optimization remarks, metrics summaries)."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = [
    "render_table",
    "render_histogram",
    "render_remarks",
    "render_metrics",
]


def render_table(
    rows: Sequence[Mapping[str, object]],
    title: str = "",
    columns: Sequence[str] | None = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns or rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    out = []
    if title:
        out.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    out.append(header)
    out.append("-" * len(header))
    for line in cells:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(out)


def render_histogram(
    buckets: Mapping[str, int], title: str = "", width: int = 40
) -> str:
    """Render labelled counts as a horizontal bar chart (Figures 8/9)."""
    out = [title] if title else []
    peak = max(buckets.values(), default=0)
    for label, count in buckets.items():
        bar = "#" * (round(width * count / peak) if peak else 0)
        out.append(f"{label:>12} | {bar} {count}")
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# ----------------------------------------------------------------------
# Observability rendering (repro.obs)
# ----------------------------------------------------------------------
def render_remarks(remarks: Iterable, title: str = "optimization remarks") -> str:
    """One stable line per remark (``--explain``). Deterministic: remarks
    carry no timestamps, so identical inputs render identically."""
    lines = [title] if title else []
    count = 0
    for remark in remarks:
        lines.append("  " + remark.format())
        count += 1
    if count == 0:
        lines.append("  (no remarks)")
    return "\n".join(lines)


def render_metrics(metrics, title: str = "metrics") -> str:
    """Counters, gauges, and histogram summaries as aligned tables.

    Accepts a ``MetricsRegistry`` (anything with ``snapshot()``) or an
    already-taken snapshot dict.
    """
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    sections = [title] if title else []
    counters = snapshot.get("counters") or {}
    if counters:
        sections.append(
            render_table(
                [{"counter": n, "value": v} for n, v in counters.items()]
            )
        )
    gauges = snapshot.get("gauges") or {}
    if gauges:
        sections.append(
            render_table([{"gauge": n, "value": v} for n, v in gauges.items()])
        )
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name, data in histograms.items():
            mean = data["total"] / data["count"] if data["count"] else 0.0
            rows.append(
                {
                    "histogram": name,
                    "count": data["count"],
                    "mean": mean,
                    "min": data["min"],
                    "max": data["max"],
                }
            )
        sections.append(render_table(rows))
    if len(sections) == (1 if title else 0):
        sections.append("(no metrics)")
    return "\n".join(sections)
