"""Cache-capacity analysis for fusion decisions (paper §5.5 future work).

The paper observed that fusion occasionally *lowered* hit rates (Track,
Dnasa7, Wave) because "our fusion algorithm only attempts to optimize
reuse at the innermost loop level, it may sometimes merge array
references that interfere or overflow cache", and flagged capacity/
interference analysis [LRW91] as future work. This module implements the
capacity side: an estimate of the cache footprint of one full sweep of a
nest's innermost loop, used to veto fusions whose merged working set
cannot fit.

The estimate follows the cost model's own vocabulary: per reference
group, an innermost sweep touches

* 1 line          — loop-invariant references,
* trip/(cls/stride) lines — consecutive references,
* trip lines      — non-contiguous references,

so the footprint is LoopCost restricted to the innermost loop (no outer
trip products), converted to bytes.
"""

from __future__ import annotations

from repro.ir.nodes import Loop
from repro.ir.visit import innermost_loops
from repro.model.loopcost import CostModel

__all__ = ["inner_loop_footprint", "fits_in_cache"]


def inner_loop_footprint(
    nest: Loop,
    model: CostModel,
    line_bytes: int,
    env: dict | None = None,
) -> float:
    """Estimated bytes touched by one sweep of each innermost loop.

    Symbolic trips are evaluated with the provided parameter environment
    when possible, else at the dominant magnitude (which makes oversized
    symbolic nests correctly look enormous).
    """
    info = model.nest_info(nest)
    total_lines = 0.0
    for inner in innermost_loops(nest):
        for group in model.groups(nest, inner.var):
            rep = group.representative
            chain = info.chains[rep.sid]
            if not chain or chain[-1] is not inner:
                continue
            cost = model.ref_cost(info, rep.ref, inner)
            try:
                total_lines += float(cost.evaluate(env or {}))
            except Exception:
                total_lines += cost.magnitude()
    return total_lines * line_bytes


def fits_in_cache(
    nest: Loop,
    model: CostModel,
    cache_bytes: int,
    line_bytes: int,
    env: dict | None = None,
) -> bool:
    """Does the innermost working set fit (with headroom for conflicts)?

    A 2x headroom factor stands in for associativity conflicts — the
    paper's "interference" — without a full [LRW91]-style analysis.
    """
    return inner_loop_footprint(nest, model, line_bytes, env) * 2 <= cache_bytes
