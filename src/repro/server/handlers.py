"""Endpoint handlers: pure, picklable compile jobs.

:func:`execute` is the single entry point the pool dispatches — a
module-level function over plain data (endpoint name, canonical source
text, parameter dict), so batches shard cleanly across the experiment
process pool. Each job:

* re-parses the canonical text (workers share nothing with the parent),
* runs under a **fresh** :class:`repro.obs.Obs` context with no
  tracer: its remarks go into the payload, its metrics go back to the
  server, and no spans are recorded,
* returns ``(payload, metrics)`` — the deterministic response payload
  plus the picklable metrics registry the server adds into the
  counters ``/metrics`` serves.

Handler payloads contain no volatile fields (times, pids); that is what
lets the app cache serialized bytes and golden-test the contract.
"""

from __future__ import annotations

import time

from repro.frontend import parse_program
from repro.ir.nodes import Program
from repro.ir.pretty import pretty_program
from repro.model import CostModel
from repro.obs import NULL_TRACER, Obs, use_obs
from repro.server.protocol import SCHEMA_VERSION

__all__ = ["execute"]


def _inject_fault(fault: str) -> None:
    """Honor a debug fault directive (the app gates on config)."""
    if not fault:
        return
    if fault.startswith("sleep:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    if fault == "boom":
        raise RuntimeError("injected worker fault (debug_faults)")
    raise RuntimeError(f"unknown fault directive {fault!r}")


def _remarks_payload(obs: Obs) -> list[dict]:
    """Remarks as wire dicts, deterministic field order."""
    rows = []
    for remark in obs.remarks:
        row: dict = {
            "pass": remark.pass_name,
            "kind": remark.kind,
            "message": remark.message,
        }
        if remark.nest is not None:
            row["nest"] = remark.nest
        if remark.loops:
            row["loops"] = list(remark.loops)
        if remark.reason is not None:
            row["reason"] = remark.reason
        rows.append(row)
    return rows


def _base_payload(endpoint: str, digest: str, program: Program) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "endpoint": endpoint,
        "digest": digest,
        "program": program.name,
        "params": dict(program.params),
    }


def _handle_optimize(program: Program, digest: str, params: dict, obs: Obs) -> dict:
    from repro.locality import predict_locality
    from repro.transforms import compound, scalar_replace_program

    model = CostModel(cls=params["cls"])
    outcome = compound(program, model)
    final = outcome.program
    replaced = 0
    if params["scalar_replace"]:
        result = scalar_replace_program(final)
        final = result.program
        replaced = result.replaced

    line, capacity = params["line"], params["capacity"]
    before = predict_locality(program, line=line)
    after = predict_locality(final, line=line)
    miss_before = before.miss_ratio_for_capacity(capacity)
    miss_after = after.miss_ratio_for_capacity(capacity)

    payload = _base_payload("optimize", digest, program)
    payload["transformed"] = pretty_program(final)
    payload["nests"] = [
        {
            "index": report.nest_index,
            "depth": report.depth,
            "status": report.status,
            "inner_status": report.inner_status,
            "distributed": report.distributed,
            "reversal_used": report.reversal_used,
        }
        for report in outcome.nests
    ]
    payload["fusion"] = {
        "candidates": outcome.fusion_candidates,
        "fused": outcome.nests_fused,
        "distribution_applied": outcome.distribution_applied,
    }
    if params["scalar_replace"]:
        payload["scalar_replaced"] = replaced
    payload["locality"] = {
        "line": line,
        "capacity": capacity,
        "miss_before": round(miss_before, 6),
        "miss_after": round(miss_after, 6),
        "improvement_pp": round((miss_before - miss_after) * 100.0, 4),
    }
    payload["remarks"] = _remarks_payload(obs)
    return payload


def _handle_lint(program: Program, digest: str, params: dict, obs: Obs) -> dict:
    from repro.lint import lint_program

    checks = tuple(params["checks"]) if params["checks"] else None
    result = lint_program(
        program,
        checks=checks,
        verify=params["verify"],
        line=params["line"],
        capacity=params["capacity"],
    )
    payload = _base_payload("lint", digest, program)
    payload["result"] = result.to_dict()
    payload["remarks"] = _remarks_payload(obs)
    return payload


def _handle_locality(program: Program, digest: str, params: dict, obs: Obs) -> dict:
    from repro.locality import predict_locality

    line = params["line"]
    prediction = predict_locality(program, line=line)
    payload = _base_payload("locality", digest, program)
    payload["line"] = line
    payload["accesses"] = prediction.accesses
    payload["cold"] = prediction.cold
    payload["path"] = "exact" if prediction.exact else "model"
    payload["reuse_classes"] = {
        kind: count for kind, count in prediction.by_kind().items() if count
    }
    payload["capacities"] = [
        {
            "lines": capacity,
            "hit_rate": round(prediction.hit_rate_for_capacity(capacity), 6),
            "miss_ratio": round(
                prediction.miss_ratio_for_capacity(capacity), 6
            ),
        }
        for capacity in params["capacities"]
    ]
    return payload


def _handle_autotune(program: Program, digest: str, params: dict, obs: Obs) -> dict:
    from repro.autotune import autotune

    line, capacity = params["line"], params["capacity"]
    result = autotune(
        program,
        model=CostModel(cls=max(1, line // 8)),
        line=line,
        capacity=capacity,
        budget=params["budget"],
        beam=params["beam"],
        verify=params["verify"],
    )
    best = result.best
    assert best.cost is not None and result.original.cost is not None
    payload = _base_payload("autotune", digest, program)
    payload["tuned"] = pretty_program(best.program)
    payload["best"] = {
        "source": best.source,
        "describe": best.describe(),
        "verified": result.verified,
    }
    payload["search"] = {
        "budget": result.budget,
        "evaluated": result.evaluated,
        "generated": result.generated,
        "candidates": len(result.ranked),
        "budget_exhausted": result.budget_exhausted,
    }
    payload["locality"] = {
        "line": line,
        "capacity": capacity,
        "miss_before": round(result.original.cost.miss_ratio, 6),
        "miss_after": round(best.cost.miss_ratio, 6),
        "improvement_pp": round(result.improvement_pp, 4),
    }
    payload["rejected"] = [
        {"candidate": describe, "slug": slug}
        for describe, slug in result.rejected
    ]
    return payload


_HANDLERS = {
    "optimize": _handle_optimize,
    "lint": _handle_lint,
    "locality": _handle_locality,
    "autotune": _handle_autotune,
}


def execute(endpoint: str, canonical_text: str, digest: str, params: dict,
            fault: str = "") -> tuple:
    """Run one compile job; returns ``(payload, metrics)``.

    Raised exceptions propagate to the pool layer, which captures them
    as :class:`~repro.experiments.common.ShardFailure` rows — one poison
    request fails alone, its batch siblings complete.
    """
    request_obs = Obs(tracer=NULL_TRACER)
    with use_obs(request_obs):
        _inject_fault(fault)
        program = parse_program(canonical_text)
        payload = _HANDLERS[endpoint](program, digest, params, request_obs)
    return payload, request_obs.metrics
