"""Nest-level context shared by the cost model: loops, sites, trips, deps.

A :class:`NestInfo` is built once per candidate nest tree (the cost model
memoizes it on identity; the dependence pair memo makes a structurally
repeated nest cheap to rebuild) and caches everything
`RefGroup`/`LoopCost` need: the loops of the nest, every reference
occurrence, the enclosing-loop chain per statement, the dependence set
(including input dependences, which carry reuse information), and symbolic
trip-count polynomials (triangular bounds are resolved to their extreme
values so that dominating-term comparisons work, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.ir.affine import Affine
from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import enclosing_loops, iter_loops, iter_statements
from repro.dependence.pairs import Dependence, RefSite, region_dependences
from repro.ir.poly import Poly

__all__ = ["NestInfo", "build_nest_info", "trip_poly"]


@dataclass
class NestInfo:
    """Cached analysis context for one loop nest (or whole program).

    ``outer`` holds enclosing context loops (outermost first) that are not
    candidates themselves but whose index variables may appear in the
    nest's bounds — trip counts resolve through them so that e.g. a
    ``K+1..N`` loop nested in ``DO K = 1, N`` counts as ~``N`` rather than
    carrying an opaque ``K``.
    """

    root: "Loop | Program"
    loops: tuple[Loop, ...]
    chains: dict[int, tuple[Loop, ...]]  # sid -> enclosing loops
    sites: tuple[RefSite, ...]
    deps: tuple[Dependence, ...]
    outer: tuple[Loop, ...] = ()

    @cached_property
    def loop_by_var(self) -> dict[str, Loop]:
        return {loop.var: loop for loop in self.outer + self.loops}

    @cached_property
    def trips(self) -> dict[str, Poly]:
        """Symbolic trip-count polynomial per loop var (context included)."""
        return {
            loop.var: trip_poly(loop, self.loop_by_var)
            for loop in self.outer + self.loops
        }

    def statements(self) -> tuple[Assign, ...]:
        return tuple(iter_statements(self.root))

    def chain_vars(self, sid: int) -> tuple[str, ...]:
        return tuple(l.var for l in self.chains[sid])

    def site_depth(self, site: RefSite) -> int:
        return len(self.chains[site.sid])


def build_nest_info(root: "Loop | Program", outer: tuple[Loop, ...] = ()) -> NestInfo:
    """Analyze ``root`` and package the results.

    Loops, chains and sites always come from ``root`` itself: several
    consumers compare chain entries against their own loop objects by
    identity. The dependence set holds no loop objects, and the pair memo
    under :func:`region_dependences` serves a structurally repeated nest.
    """
    sites: list[RefSite] = []
    for stmt in iter_statements(root):
        for slot, ref in enumerate(stmt.refs):
            sites.append(RefSite(stmt.sid, slot, ref, is_write=(slot == 0)))
    deps = tuple(region_dependences(root, include_inputs=True))
    return NestInfo(
        root,
        tuple(iter_loops(root)),
        enclosing_loops(root),
        tuple(sites),
        deps,
        tuple(outer),
    )


def trip_poly(loop: Loop, loop_by_var: dict[str, Loop]) -> Poly:
    """Symbolic trip count of ``loop`` as a cost polynomial.

    Rectangular bounds give the exact affine trip ``(ub-lb+step)/step``.
    Triangular bounds (referencing outer loop indices) are resolved to the
    extreme of the span over the enclosing iteration space, matching the
    paper's use of the dominating term (e.g. every Cholesky loop counts as
    ``n``).
    """
    span = loop.ub - loop.lb + loop.step
    resolved = _extreme(span, loop_by_var, maximize=(loop.step > 0), seen=frozenset({loop.var}))
    if resolved.is_constant():
        # Exact Fortran trip count (floor division), clamped at zero.
        return Poly.constant(max(resolved.const // loop.step, 0))
    poly = Poly.from_affine(resolved) / loop.step
    return poly


def _extreme(
    form: Affine,
    loop_by_var: dict[str, Loop],
    maximize: bool,
    seen: frozenset[str],
) -> Affine:
    """Replace loop-variable terms with their extreme bound, recursively.

    Symbols (not loop variables) are left in place. ``seen`` breaks cycles
    defensively; validated programs cannot have them.
    """
    result = Affine.constant(form.const)
    for name, coeff in form.terms:
        loop = loop_by_var.get(name)
        if loop is None or name in seen:
            result = result + Affine.var(name, coeff)
            continue
        take_max = (coeff > 0) == maximize
        if loop.step > 0:
            bound = loop.ub if take_max else loop.lb
        else:
            bound = loop.lb if take_max else loop.ub
        resolved = _extreme(bound, loop_by_var, take_max, seen | {name})
        result = result + resolved * coeff
    return result
