"""The initial check set: six locality diagnostics from the paper's analyses.

Each check reads shared analyses from the :class:`LintContext` and emits
:class:`Diagnostic` records; fix-its attached here are *candidates* — the
engine verifies them against the legality layer and the brute-force
oracles and scores them with the analytic predictor before they are
surfaced.

Check catalog (ids are stable; see docs/lint.md):

==========  ==================  ====================================
LOC001      stride              non-unit/innermost-stride access
LOC002      loop-order          memory-order-violating permutation
LOC003      fusion              fusion candidates across adjacent nests
LOC004      race                loop-carried dependence blocks DOALL
LOC005      scalar-replace      redundant array reads, promotable
LOC006      alias               gcd-lattice alias hazards
==========  ==================  ====================================
"""

from __future__ import annotations

import math

from repro.dependence.pairs import Dependence, region_dependences
from repro.dependence.parallel import carried_levels
from repro.ir.affine import Affine
from repro.ir.expr import Ref
from repro.ir.nodes import Assign, Loop
from repro.ir.visit import innermost_loops
from repro.lint.diagnostics import NOTE, WARNING, Diagnostic, FixIt
from repro.lint.registry import LintCheck, LintContext, register
from repro.model.loopcost import CONSECUTIVE, INVARIANT
from repro.transforms.recipe import (
    Distribute,
    Fuse,
    Permute,
    Recipe,
    ScalarReplace,
)

__all__ = [
    "StrideCheck",
    "LoopOrderCheck",
    "FusionCheck",
    "RaceCheck",
    "ScalarReplaceCheck",
    "AliasCheck",
]


def _first_stmt_with(loop: Loop, ref: Ref) -> Assign | None:
    for stmt in loop.statements:
        if ref in stmt.refs:
            return stmt
    return None


@register
class StrideCheck(LintCheck):
    """LOC001: references the innermost loop walks with non-unit stride."""

    check_id = "LOC001"
    name = "stride"
    default_severity = WARNING
    summary = (
        "A reference is neither loop-invariant nor consecutive with "
        "respect to the innermost loop: every iteration touches a new "
        "cache line (RefCost = trip, paper Figure 1)."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for _index, nest in ctx.top_nests():
            for loop in innermost_loops(nest):
                seen: set[Ref] = set()
                for stmt in loop.statements:
                    for ref in stmt.refs:
                        if ref.rank == 0 or ref in seen:
                            continue
                        seen.add(ref)
                        kind = ctx.model.ref_cost_kind(ref, loop)
                        if kind in (INVARIANT, CONSECUTIVE):
                            continue
                        leading = ref.subs[0].coeff(loop.var)
                        if leading:
                            stride = abs(loop.step * leading)
                            how = f"stride {stride} in the leading dimension"
                        else:
                            how = "a non-leading dimension varies with the loop"
                        anchor = _first_stmt_with(loop, ref)
                        out.append(
                            Diagnostic(
                                self.check_id,
                                self.name,
                                self.default_severity,
                                f"{ref} is non-contiguous in innermost loop "
                                f"{loop.var}: {how}; each iteration touches a "
                                f"new cache line",
                                span=ctx.stmt_span(anchor.sid) if anchor else None,
                                loops=(loop.var,),
                                array=ref.array,
                                data={"kind": str(kind), "ref": str(ref)},
                            )
                        )
        return out


@register
class LoopOrderCheck(LintCheck):
    """LOC002: the nest is not in memory order; permutation would fix it."""

    check_id = "LOC002"
    name = "loop-order"
    default_severity = WARNING
    summary = (
        "LoopCost ranks a different loop cheapest-innermost than the one "
        "currently innermost; permuting into memory order (or distributing "
        "to enable the permutation) reduces the lines each iteration moves."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        from repro.transforms.distribution import distribute_nest
        from repro.transforms.permute import permute_nest

        out: list[Diagnostic] = []
        for index, nest in ctx.top_nests():
            result = permute_nest(nest, ctx.model)
            if result.originally_in_memory_order:
                continue
            order = ".".join(result.original)
            desired = ".".join(result.desired)
            message = (
                f"loop order {order} is not memory order {desired} "
                f"(LoopCost ranks {result.desired[-1]} cheapest innermost)"
            )
            span = ctx.loop_span(nest.var)
            if result.applied:
                achieved = ".".join(result.order)
                description = f"permute nest to {achieved}"
                if result.reversed_loops:
                    description += (
                        f" (reversing {', '.join(result.reversed_loops)})"
                    )
                recipe = Recipe(
                    (Permute((index,), result.order, result.reversed_loops),)
                )
                out.append(
                    Diagnostic(
                        self.check_id,
                        self.name,
                        self.default_severity,
                        message,
                        span=span,
                        loops=result.original,
                        data={"desired": desired, "achieved": achieved},
                        fixit=FixIt(
                            "permute", description, recipe.replay(ctx.program), recipe
                        ),
                    )
                )
                continue
            # Permutation alone failed — try distribution as an enabler.
            outcome = distribute_nest(nest, ctx.model)
            if outcome is not None and any(
                p.applied or p.originally_in_memory_order
                for p in outcome.permutations
            ):
                recipe = Recipe((Distribute.of((index,), outcome),))
                out.append(
                    Diagnostic(
                        self.check_id,
                        self.name,
                        self.default_severity,
                        message + f"; distribution at level {outcome.level} "
                        f"enables the permutation",
                        span=span,
                        loops=result.original,
                        data={
                            "desired": desired,
                            "failure": result.failure or "",
                            "new_nests": outcome.new_nests,
                        },
                        fixit=FixIt(
                            "distribute",
                            f"distribute into {outcome.new_nests} nests and "
                            f"permute each into memory order",
                            recipe.replay(ctx.program),
                            recipe,
                        ),
                    )
                )
                continue
            out.append(
                Diagnostic(
                    self.check_id,
                    self.name,
                    NOTE,
                    message
                    + f"; unachievable ({result.failure or 'dependences'})",
                    span=span,
                    loops=result.original,
                    data={"desired": desired, "failure": result.failure or ""},
                )
            )
        return out


@register
class FusionCheck(LintCheck):
    """LOC003: adjacent compatible nests that could (or cannot) fuse."""

    check_id = "LOC003"
    name = "fusion"
    default_severity = WARNING
    summary = (
        "Two adjacent nests share compatible headers; fusing them turns "
        "cross-nest group-temporal reuse into in-loop reuse (paper §4.3). "
        "Candidates blocked by a fusion-preventing dependence are reported "
        "as notes."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        from repro.transforms.fusion import (
            compatible_depth,
            fusion_benefit,
            fusion_preventing,
        )

        out: list[Diagnostic] = []

        def scan(body: tuple["Loop | Assign", ...], path: tuple[int, ...]) -> None:
            for i in range(len(body) - 1):
                first, second = body[i], body[i + 1]
                if not (isinstance(first, Loop) and isinstance(second, Loop)):
                    continue
                depth = compatible_depth(first, second)
                if depth == 0:
                    continue
                pair = f"adjacent nests over {first.var} and {second.var}"
                span = ctx.loop_span(first.var)
                if fusion_preventing(first, second, depth):
                    out.append(
                        Diagnostic(
                            self.check_id,
                            self.name,
                            NOTE,
                            f"{pair} have compatible headers (depth {depth}) "
                            f"but a fusion-preventing dependence would run "
                            f"backwards in the fused loop",
                            span=span,
                            loops=(first.var, second.var),
                            data={"depth": depth, "blocked": True},
                        )
                    )
                    continue
                benefit = fusion_benefit(first, second, depth, ctx.model)
                if benefit <= 0:
                    out.append(
                        Diagnostic(
                            self.check_id,
                            self.name,
                            NOTE,
                            f"{pair} can fuse (depth {depth}) but the cost "
                            f"model predicts no locality benefit",
                            span=span,
                            loops=(first.var, second.var),
                            data={"depth": depth, "benefit": 0},
                        )
                    )
                    continue
                recipe = Recipe((Fuse(path, ((i, i + 1, depth),)),))
                out.append(
                    Diagnostic(
                        self.check_id,
                        self.name,
                        self.default_severity,
                        f"{pair} are compatible to depth {depth} and fusing "
                        f"them improves group-temporal reuse",
                        span=span,
                        loops=(first.var, second.var),
                        data={"depth": depth},
                        fixit=FixIt(
                            "fuse",
                            f"fuse the {first.var} and {second.var} nests "
                            f"at depth {depth}",
                            recipe.replay(ctx.program),
                            recipe,
                        ),
                    )
                )
            for index, node in enumerate(body):
                if isinstance(node, Loop):
                    scan(node.body, path + (index,))

        scan(ctx.program.body, ())
        return out


@register
class RaceCheck(LintCheck):
    """LOC004: a loop-carried dependence blocks outer-loop parallelization."""

    check_id = "LOC004"
    name = "race"
    default_severity = NOTE
    summary = (
        "The outermost loop of a nest carries a dependence: running its "
        "iterations concurrently would race on the reported reference "
        "pair. Parallelize an inner dependence-free loop instead."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for _index, nest in ctx.top_nests():
            carried = carried_levels(nest)
            if not carried.get(nest.var):
                continue
            offender: Dependence | None = None
            for dep in region_dependences(nest):
                if dep.constrains_legality and dep.carried_level() == 1:
                    offender = dep
                    break
            if offender is None:  # pragma: no cover - carried implies a dep
                continue
            parallel = [var for var, is_carried in carried.items() if not is_carried]
            hint = (
                f"; inner loop(s) {', '.join(parallel)} are dependence-free"
                if parallel
                else "; no loop of this nest is dependence-free"
            )
            out.append(
                Diagnostic(
                    self.check_id,
                    self.name,
                    self.default_severity,
                    f"outer loop {nest.var} carries a {offender.kind} "
                    f"dependence {offender}: iterations are not independent "
                    f"(blocks DOALL parallelization){hint}",
                    span=ctx.loop_span(nest.var),
                    loops=(nest.var,),
                    array=offender.source.ref.array,
                    data={
                        "kind": offender.kind,
                        "vector": str(offender.vector),
                        "source_sid": offender.source.sid,
                        "sink_sid": offender.sink.sid,
                        "parallel_loops": parallel,
                    },
                )
            )
        return out


@register
class ScalarReplaceCheck(LintCheck):
    """LOC005: innermost-loop-invariant references re-loaded every iteration."""

    check_id = "LOC005"
    name = "scalar-replace"
    default_severity = WARNING
    summary = (
        "A reference is invariant in the innermost loop and provably "
        "disjoint from every other reference to its array: the repeated "
        "load (and store) is redundant memory traffic a scalar temporary "
        "eliminates (paper framework step 3, after [CCK90])."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        from repro.transforms.scalar_replace import (
            _promotable_refs,
            scalar_replace_program,
        )

        candidates: list[tuple[Loop, Ref, bool]] = []
        for _index, nest in ctx.top_nests():
            for loop in innermost_loops(nest):
                stmts = [item for item in loop.body if isinstance(item, Assign)]
                for ref, written in _promotable_refs(stmts, loop.var):
                    candidates.append((loop, ref, written))
        if not candidates:
            return []
        replaced = scalar_replace_program(ctx.program)
        fixit = (
            FixIt(
                "scalar-replace",
                f"promote {replaced.replaced} invariant reference(s) to scalars",
                replaced.program,
                Recipe((ScalarReplace(),)),
            )
            if replaced.replaced
            else None
        )
        out: list[Diagnostic] = []
        for loop, ref, written in candidates:
            traffic = "re-loaded" if not written else "re-loaded and re-stored"
            anchor = _first_stmt_with(loop, ref)
            out.append(
                Diagnostic(
                    self.check_id,
                    self.name,
                    self.default_severity,
                    f"{ref} is invariant in innermost loop {loop.var} and "
                    f"{traffic} every iteration; promote it to a scalar",
                    span=ctx.stmt_span(anchor.sid) if anchor else None,
                    loops=(loop.var,),
                    array=ref.array,
                    data={"ref": str(ref), "written": written},
                    fixit=fixit,
                )
            )
        return out


@register
class AliasCheck(LintCheck):
    """LOC006: gcd-lattice overlap between non-uniformly generated refs."""

    check_id = "LOC006"
    name = "alias"
    default_severity = WARNING
    summary = (
        "Two references to one array have different linear parts but "
        "address lattices the gcd test cannot separate: dependence "
        "directions degrade to '*' and the analytic predictor treats the "
        "pair conservatively (gcd machinery of repro.locality.analytic)."
    )

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        from repro.exec.layout import MemoryLayout

        env = ctx.program.param_env
        try:
            layout = MemoryLayout.for_program(ctx.program)
        except Exception:  # unresolvable extents: nothing to reason about
            return []
        out: list[Diagnostic] = []
        reported: set[tuple[str, tuple[Affine, ...], tuple[Affine, ...]]] = set()
        for _index, nest in ctx.top_nests():
            sites: list[tuple[Assign, Ref, bool]] = []
            for stmt in nest.statements:
                for slot, ref in enumerate(stmt.refs):
                    if ref.rank:
                        sites.append((stmt, ref, slot == 0))
            for i, (stmt_a, ref_a, write_a) in enumerate(sites):
                for stmt_b, ref_b, write_b in sites[i + 1 :]:
                    if ref_a.array != ref_b.array or ref_a.subs == ref_b.subs:
                        continue
                    if not (write_a or write_b):
                        continue
                    key = (ref_a.array, ref_a.subs, ref_b.subs)
                    if key in reported or (ref_a.array, ref_b.subs, ref_a.subs) in reported:
                        continue
                    arr = layout[ref_a.array]
                    delta = arr.address_form(ref_a, env) - arr.address_form(ref_b, env)
                    coeffs = [c for _name, c in delta.terms]
                    if not coeffs:
                        continue  # uniformly generated: constant distance
                    lattice = math.gcd(*(abs(c) for c in coeffs))
                    if lattice and delta.const % lattice != 0:
                        continue  # provably disjoint lattices
                    reported.add(key)
                    out.append(
                        Diagnostic(
                            self.check_id,
                            self.name,
                            self.default_severity,
                            f"{ref_a} and {ref_b} may alias: the gcd lattice "
                            f"test cannot separate their address sets "
                            f"(stride gcd {lattice}, offset "
                            f"{delta.const % lattice if lattice else 0}); "
                            f"dependence directions degrade to '*'",
                            span=ctx.stmt_span(stmt_a.sid) or ctx.stmt_span(stmt_b.sid),
                            array=ref_a.array,
                            data={
                                "refs": [str(ref_a), str(ref_b)],
                                "gcd": lattice,
                            },
                        )
                    )
        return out
