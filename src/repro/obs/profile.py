"""Hierarchical profile rendering: the ``--profile`` phase tree.

Aggregates a recorded span forest into a self-explaining tree: sibling
spans with the same name collapse into one row carrying call count,
total wall time, total CPU time, and peak traced memory, with each row's
share of its parent's wall time. A second section attributes pipeline
counters to the phase that owns them, so a profile reads as::

    phase                                calls   wall ms    cpu ms   peak mem   % parent
    pipeline                                 1    12.402    12.390     1.2 MB
      frontend.parse                         1     0.311     0.310    88.1 KB       2.5%
      compound                               1     8.922     8.915   903.2 KB      71.9%
        compound.nest                        2     8.614     8.610   884.0 KB      96.5%
      exec.simulate                          2     3.012     3.010   201.3 KB      24.3%

    phase attribution
      dependence: dep.pairs=7 dep.test.siv=14 ...

Profiles need spans recorded by a profiling tracer
(``Obs(profile=True)``); plain spans render the same tree with the CPU
and memory columns blank.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.tracer import Span

__all__ = ["aggregate_spans", "render_profile", "PHASE_COUNTERS"]

#: pipeline phase -> counter prefixes attributed to it (the "where did
#: the work go" footer under the phase tree)
PHASE_COUNTERS: Mapping[str, tuple[str, ...]] = {
    "frontend": ("frontend.",),
    "dependence": ("dep.",),
    "transforms": (
        "permute.",
        "fusion.",
        "distribute.",
        "compound.",
        "scalar_replace.",
    ),
    "model": ("model.",),
    "trace": ("trace.",),
    "cache": ("cache.",),
    "exec": ("exec.",),
    "locality": ("locality.",),
    "experiment": ("experiment.",),
    "verify": ("verify.",),
}


class _Node:
    __slots__ = ("name", "calls", "wall", "cpu", "mem", "lanes", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.wall = 0.0
        self.cpu: float | None = None
        self.mem: int | None = None
        self.lanes: set = set()  # worker-shard indices seen
        self.children: dict[str, "_Node"] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node

    def add(self, span: Span) -> None:
        self.calls += 1
        self.wall += span.duration
        if span.cpu is not None:
            self.cpu = (self.cpu or 0.0) + span.cpu
        if span.mem_peak is not None:
            self.mem = max(self.mem or 0, span.mem_peak)
        if span.shard is not None:
            self.lanes.add(span.shard)


def aggregate_spans(spans: Sequence[Span]) -> _Node:
    """Collapse a span forest into a name-keyed aggregate tree."""
    root = _Node("")
    nodes: dict[int, _Node] = {}
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        parent = nodes.get(span.parent_id) if span.parent_id in by_id else root
        if parent is None:
            parent = root
        node = parent.child(span.name)
        node.add(span)
        nodes[span.span_id] = node
    return root


def _fmt_mem(value: int | None) -> str:
    if value is None:
        return ""
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f} MB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f} KB"
    return f"{value} B"


def render_profile(
    spans: Sequence[Span],
    metrics=None,
    title: str = "phase profile",
) -> str:
    """Render the aggregated phase tree (plus counter attribution)."""
    lines = [title] if title else []
    root = aggregate_spans(spans)
    if not root.children:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)

    header = (
        f"  {'phase':<36} {'calls':>5} {'wall ms':>10} {'cpu ms':>10} "
        f"{'peak mem':>10} {'% parent':>9}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))

    def walk(node: _Node, depth: int, parent_wall: float | None) -> None:
        label = "  " * depth + node.name
        share = (
            f"{100.0 * node.wall / parent_wall:8.1f}%"
            if parent_wall
            else ""
        )
        cpu = f"{node.cpu * 1e3:10.3f}" if node.cpu is not None else f"{'':>10}"
        shard_tag = f" [{len(node.lanes)} shards]" if node.lanes else ""
        lines.append(
            f"  {label:<36} {node.calls:>5} {node.wall * 1e3:10.3f} {cpu} "
            f"{_fmt_mem(node.mem):>10} {share:>9}{shard_tag}"
        )
        for child in node.children.values():
            walk(child, depth + 1, node.wall or None)

    for top in root.children.values():
        walk(top, 0, None)

    if metrics is not None:
        snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
        counters = snapshot.get("counters") or {}
        attributed = []
        for phase, prefixes in PHASE_COUNTERS.items():
            owned = {
                name: value
                for name, value in counters.items()
                if any(name.startswith(p) for p in prefixes)
            }
            if owned:
                pairs = " ".join(f"{n}={v}" for n, v in sorted(owned.items()))
                attributed.append(f"    {phase}: {pairs}")
        if attributed:
            lines.append("")
            lines.append("  phase attribution")
            lines.extend(attributed)
    return "\n".join(lines)
