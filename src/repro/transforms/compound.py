"""Compound: the integrated transformation driver (paper §4.5, Figure 6).

For each loop nest: compute memory order; try permutation; if the nest is
imperfect, try fusing all inner loops to enable permutation; failing
that, try distribution (then re-fuse the pieces to recover temporal
locality). Finally, fuse adjacent compatible nests when the cost model
reports a locality benefit.

The driver also produces the per-nest bookkeeping behind Table 2:
memory-order status (original / permuted / failed), inner-loop status,
fusion candidate/actual counts, and distribution counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import innermost_loops, iter_loops
from repro.model.loopcost import CostModel
from repro.obs import get_obs
from repro.transforms.distribution import DistributeOutcome, distribute_nest
from repro.transforms.fusion import fuse_adjacent, fuse_all
from repro.transforms.permute import permute_nest

__all__ = ["NestReport", "CompoundOutcome", "compound", "optimize_nest"]

ORIG = "orig"
PERM = "perm"
FAIL = "fail"


@dataclass(frozen=True)
class NestReport:
    """Table-2 bookkeeping for one analyzed nest (depth >= 2)."""

    nest_index: int
    depth: int
    loop_count: int
    status: str  # ORIG / PERM / FAIL for whole-nest memory order
    inner_status: str  # same for the innermost-loop position
    fusion_enabled_permutation: bool = False
    distributed: bool = False
    nests_created: int = 0
    reversal_used: bool = False
    failure_reason: str | None = None


@dataclass
class CompoundOutcome:
    """Result of running Compound over a whole program."""

    program: Program
    nests: list[NestReport] = field(default_factory=list)
    fusion_candidates: int = 0
    nests_fused: int = 0
    distribution_applied: int = 0
    distribution_resulting: int = 0

    @property
    def counts(self) -> dict[str, int]:
        out = {ORIG: 0, PERM: 0, FAIL: 0}
        for report in self.nests:
            out[report.status] += 1
        return out

    @property
    def inner_counts(self) -> dict[str, int]:
        out = {ORIG: 0, PERM: 0, FAIL: 0}
        for report in self.nests:
            out[report.inner_status] += 1
        return out


def compound(
    program: Program,
    model: CostModel | None = None,
    cache_capacity: "tuple[int, int] | None" = None,
) -> CompoundOutcome:
    """Apply the compound transformation algorithm to a program.

    ``cache_capacity`` — optional ``(cache_bytes, line_bytes)`` — enables
    the §5.5 capacity veto on the final fusion pass: fusions whose merged
    innermost working set overflows the cache are skipped. The paper's
    own algorithm has no such check (and occasionally lost hit rate for
    it); pass None to reproduce the paper's behaviour.
    """
    model = model or CostModel()
    obs = get_obs()
    outcome = CompoundOutcome(program)
    used_names = {loop.var for loop in iter_loops(program)}

    with obs.span("compound", program=program.name):
        new_body: list[Loop | Assign] = []
        nest_index = 0
        for item in program.body:
            if not isinstance(item, Loop) or item.depth < 2:
                new_body.append(item)
                continue
            with obs.span("compound.nest", nest=nest_index, var=item.var):
                nodes, report, dist = optimize_nest(item, model, used_names, nest_index)
            new_body.extend(nodes)
            outcome.nests.append(report)
            if dist is not None:
                outcome.distribution_applied += 1
                outcome.distribution_resulting += dist.new_nests
            if obs.enabled:
                _nest_remark(obs, item, report)
            nest_index += 1

        # Final pass: fuse adjacent compatible nests for temporal locality.
        with obs.span("compound.fuse_adjacent"):
            fused = fuse_adjacent(
                tuple(new_body),
                model,
                cache_capacity=cache_capacity,
                param_env=program.param_env,
            )
        outcome.fusion_candidates += fused.candidates
        outcome.nests_fused += fused.fused
        outcome.program = program.with_body(fused.items)
        if obs.enabled:
            obs.remark(
                "compound",
                "analysis",
                f"fused {fused.fused} of {fused.candidates} candidate nests",
                candidates=fused.candidates,
                fused=fused.fused,
            )
    return outcome


def _nest_remark(obs, nest: Loop, report: NestReport) -> None:
    """Per-nest driver summary remark (the --explain backbone)."""
    if report.status == FAIL:
        kind = "rejected"
    elif (
        report.status == PERM
        or report.inner_status == PERM
        or report.distributed
        or report.fusion_enabled_permutation
    ):
        kind = "applied"
    else:
        kind = "analysis"
    message = (
        f"memory order {report.status}, inner loop {report.inner_status}"
    )
    if report.fusion_enabled_permutation:
        message += ", fusion enabled permutation"
    if report.distributed:
        message += f", distributed into {report.nests_created} nests"
    if report.reversal_used:
        message += ", reversal used"
    loop_vars = tuple(loop.var for loop in iter_loops(nest))
    obs.remark(
        "compound",
        kind,
        message,
        nest=report.nest_index,
        loops=loop_vars,
        reason=report.failure_reason,
        depth=report.depth,
    )
    obs.metrics.counter(f"compound.nest.{report.status}").inc()
    obs.metrics.counter("compound.nests").inc()


def optimize_nest(
    nest: Loop,
    model: CostModel,
    used_names: set[str],
    nest_index: int = 0,
) -> tuple[tuple["Loop | Assign", ...], NestReport, DistributeOutcome | None]:
    """Optimize one nest; returns replacement nodes, report, distribution."""
    depth = nest.depth
    loop_count = sum(1 for _ in iter_loops(nest))

    # --- Perfect (or effectively perfect) nest: straight permutation. ---
    chain = nest.perfect_nest_loops()
    if len(chain) == depth:
        res = permute_nest(nest, model)
        report = NestReport(
            nest_index,
            depth,
            loop_count,
            status=_status(res.originally_in_memory_order, res.achieved_memory_order),
            inner_status=_inner_status(res),
            reversal_used=bool(res.reversed_loops),
            failure_reason=res.failure,
        )
        return (res.loop,), report, None

    # --- Imperfect nest. Already in memory order? ---------------------
    desired = tuple(model.memory_order(nest))
    preorder = tuple(loop.var for loop in iter_loops(nest))
    if desired == preorder:
        report = NestReport(
            nest_index, depth, loop_count, status=ORIG, inner_status=ORIG
        )
        return (nest,), report, None

    inner_orig = {l.var for l in innermost_loops(nest)} == {desired[-1]}

    # --- Fusion of all inner loops to enable permutation (§4.3.2). ----
    fused_perfect = fuse_all(nest)
    if fused_perfect is not None and fused_perfect.is_perfect_nest():
        res = permute_nest(fused_perfect, model)
        if res.applied and res.achieved_memory_order:
            report = NestReport(
                nest_index,
                depth,
                loop_count,
                status=PERM,
                inner_status=ORIG if inner_orig else PERM,
                fusion_enabled_permutation=True,
                reversal_used=bool(res.reversed_loops),
            )
            return (res.loop,), report, None

    # --- Distribution (§4.4), then re-fusion of the pieces. -----------
    dist = distribute_nest(nest, model, used_names=set(used_names))
    if dist is not None:
        used_names.update(
            loop.var for node in dist.nodes if isinstance(node, Loop)
            for loop in iter_loops(node)
        )
        nodes = _refuse_inner(dist.nodes, model)
        deep = [r for r in dist.permutations]
        all_mem = bool(deep) and all(
            r.achieved_memory_order or r.originally_in_memory_order for r in deep
        )
        any_inner = any(r.inner_in_memory_position for r in deep)
        report = NestReport(
            nest_index,
            depth,
            loop_count,
            status=PERM if all_mem else FAIL,
            inner_status=(
                ORIG if inner_orig else (PERM if (all_mem or any_inner) else FAIL)
            ),
            distributed=True,
            nests_created=dist.new_nests,
            failure_reason=None if all_mem else "dependences",
        )
        return nodes, report, dist

    # --- Last resort: permute maximal perfect sub-nests in place. -----
    rebuilt, improved_inner = _permute_subnests(nest, model, ())
    final_inner = {l.var for l in innermost_loops(rebuilt)} == {desired[-1]}
    report = NestReport(
        nest_index,
        depth,
        loop_count,
        status=FAIL,
        inner_status=(
            ORIG if inner_orig else (PERM if final_inner else FAIL)
        ),
        failure_reason="dependences",
    )
    return (rebuilt,), report, None


def _status(originally: bool, achieved: bool) -> str:
    if originally:
        return ORIG
    return PERM if achieved else FAIL


def _inner_status(res) -> str:
    if res.originally_in_memory_order:
        return ORIG
    if res.original and res.desired and res.original[-1] == res.desired[-1]:
        return ORIG
    return PERM if res.inner_in_memory_position else FAIL


def _refuse_inner(
    nodes: tuple["Loop | Assign", ...], model: CostModel
) -> tuple["Loop | Assign", ...]:
    """Re-fuse adjacent loops created by distribution (Compound's Fuse(l))."""

    def rebuild(loop: Loop) -> Loop:
        body = tuple(
            rebuild(item) if isinstance(item, Loop) else item for item in loop.body
        )
        fused = fuse_adjacent(body, model)
        return loop.with_body(fused.items)

    out: list[Loop | Assign] = []
    for node in nodes:
        out.append(rebuild(node) if isinstance(node, Loop) else node)
    result = fuse_adjacent(tuple(out), model)
    return result.items


def _permute_subnests(
    nest: Loop, model: CostModel, outer: tuple[Loop, ...]
) -> tuple[Loop, bool]:
    """Permute each maximal perfect sub-nest of an unpermutable nest."""
    improved = False
    chain = nest.perfect_nest_loops()
    if len(chain) >= 2:
        res = permute_nest(nest, model, outer_loops=outer)
        if res.applied:
            return res.loop, res.inner_in_memory_position
        return nest, False

    new_body: list[Loop | Assign] = []
    for item in nest.body:
        if isinstance(item, Loop):
            rebuilt, sub = _permute_subnests(item, model, outer + (nest,))
            new_body.append(rebuilt)
            improved = improved or sub
        else:
            new_body.append(item)
    return nest.with_body(new_body), improved
