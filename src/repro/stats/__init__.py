"""Statistics collection: Table 2 memory-order stats, Table 5 access
properties, and plain-text report rendering (tables + observability)."""

from repro.stats.access import AccessProperties, collect_access_properties, cost_ratios
from repro.stats.memorder import (
    ProgramStats,
    collect_program_stats,
    ideal_cost,
    program_cost,
)
from repro.stats.report import (
    render_histogram,
    render_metrics,
    render_remarks,
    render_table,
)

__all__ = [
    "AccessProperties",
    "ProgramStats",
    "collect_access_properties",
    "collect_program_stats",
    "cost_ratios",
    "ideal_cost",
    "program_cost",
    "render_histogram",
    "render_metrics",
    "render_remarks",
    "render_table",
]
