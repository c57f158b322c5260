"""RefCost and LoopCost (Figure 1) and memory order (§4.1).

``RefCost(ref, l)`` counts cache lines touched by one reference group's
representative over the iterations of candidate inner loop ``l``:

* ``1`` — loop invariant: no subscript mentions ``l``'s index;
* ``trip / (cls/stride)`` — consecutive: the index appears only in the
  first (fastest-varying) subscript with ``|stride| < cls``;
* ``trip`` — otherwise (no reuse).

``LoopCost(l)`` sums RefCost over all reference groups and multiplies by
the trips of the representative's other enclosing loops. ``memory_order``
ranks loops by descending LoopCost — cheapest loop innermost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.dependence.tests import recording_kinds, replay_kinds
from repro.ir.expr import Ref
from repro.ir.nodes import Loop, Program
from repro.ir.poly import Poly
from repro.model.memo import MemoCache
from repro.model.nest import NestInfo, build_nest_info, nest_structure
from repro.model.refgroup import GROUP_TEMPORAL_MAX_DISTANCE, RefGroup, ref_groups

__all__ = ["CostModel", "RefCostKind", "INVARIANT", "CONSECUTIVE", "NONE"]

INVARIANT = "invariant"
CONSECUTIVE = "consecutive"
NONE = "none"

RefCostKind = str

#: Cache size valve (entries are LRU-evicted past it; see repro.model.memo).
_CACHE_CAP = 4096

#: root (structural) -> (dependence tuple, recorded ``dep.*`` kind
#: counter bumps), shared across CostModel instances: dependences contain
#: no loop objects and do not depend on the model's parameters or the
#: outer context, so structurally identical nests (rebuilt trees, repeated
#: experiment versions) reuse the expensive region_dependences result. A
#: hit replays the bumps, so ``dep.*`` totals do not depend on what ran
#: earlier in the process.
_DEPS_CACHE = MemoCache("model.nestinfo.cache", cap=_CACHE_CAP)


@dataclass
class CostModel:
    """The paper's cache cost model.

    Args:
        cls: cache line size in array *elements* (the paper's figures use
            cls=4, i.e. 32-byte lines of REAL*8).
        temporal_max: |d| threshold of RefGroup condition 1(b).
    """

    cls: int = 4
    temporal_max: int = GROUP_TEMPORAL_MAX_DISTANCE
    # id(root/outer) -> (root, outer, info): identity fast path. The
    # objects are kept so a recycled id can never alias a dead tree.
    # Per-instance (unregistered) so the global cache registry never
    # pins a dead model alive.
    _info_cache: MemoCache = field(
        default_factory=lambda: MemoCache(
            "model.nestinfo.ident", cap=_CACHE_CAP, register=False
        ),
        repr=False,
    )
    # (root, outer, loop_var) structural -> Poly. Per-model: the
    # result depends on cls/temporal_max.
    _cost_cache: MemoCache = field(
        default_factory=lambda: MemoCache(
            "model.loopcost.cache", cap=_CACHE_CAP, register=False
        ),
        repr=False,
    )

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def nest_info(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> NestInfo:
        outer = tuple(outer)
        ident = (id(root),) + tuple(id(l) for l in outer)
        hit = self._info_cache.get(ident)
        if (
            hit is not None
            and hit[0] is root
            and len(hit[1]) == len(outer)
            and all(a is b for a, b in zip(hit[1], outer))
        ):
            return hit[2]
        cached = _DEPS_CACHE.get(root)
        if cached is None:
            with recording_kinds() as kinds:
                info = build_nest_info(root, outer)
            _DEPS_CACHE.put(root, (info.deps, tuple(kinds.items())))
        else:
            deps, kinds = cached
            replay_kinds(kinds)
            # Structural hit: reuse the dependence set, but rebuild the
            # tree-derived parts from THIS root — consumers compare chain
            # entries against their own loop objects by identity.
            loops, chains, sites = nest_structure(root)
            info = NestInfo(root, loops, chains, sites, deps, outer)
        self._info_cache.put(ident, (root, outer, info))
        return info

    def groups(
        self, root: "Loop | Program", loop_var: str, outer: tuple[Loop, ...] = ()
    ) -> list[RefGroup]:
        return ref_groups(
            self.nest_info(root, outer), loop_var, self.cls, self.temporal_max
        )

    # ------------------------------------------------------------------
    # RefCost
    # ------------------------------------------------------------------
    def ref_cost_kind(self, ref: Ref, loop: Loop) -> RefCostKind:
        """Classify a reference w.r.t. a candidate inner loop (Figure 1)."""
        var = loop.var
        if all(sub.coeff(var) == 0 for sub in ref.subs):
            return INVARIANT
        stride = abs(loop.step * ref.subs[0].coeff(var))
        rest_invariant = all(sub.coeff(var) == 0 for sub in ref.subs[1:])
        if stride != 0 and stride < self.cls and rest_invariant:
            return CONSECUTIVE
        return NONE

    def ref_cost(self, info: NestInfo, ref: Ref, loop: Loop) -> Poly:
        """Cache lines accessed by ``ref`` over ``loop``'s iterations."""
        kind = self.ref_cost_kind(ref, loop)
        if kind == INVARIANT:
            return Poly.constant(1)
        trip = info.trips[loop.var]
        if kind == CONSECUTIVE:
            stride = abs(loop.step * ref.subs[0].coeff(loop.var))
            return trip * Fraction(stride, self.cls)
        return trip

    # ------------------------------------------------------------------
    # LoopCost
    # ------------------------------------------------------------------
    def loop_cost(
        self, root: "Loop | Program", loop_var: str, outer: tuple[Loop, ...] = ()
    ) -> Poly:
        """Total cache lines accessed with ``loop_var`` innermost.

        Memoized on the structural (root, outer, loop_var) key — the
        result is a pure value of the nest's shape and the model's
        parameters, so re-deriving a nest the pipeline has already costed
        (common across experiment versions) is a dictionary hit.
        """
        key = (root, tuple(outer), loop_var)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        info = self.nest_info(root, outer)
        loop = info.loop_by_var[loop_var]
        total = Poly.constant(0)
        for group in self.groups(root, loop_var, outer):
            rep = group.representative
            cost = self.ref_cost(info, rep.ref, loop)
            for enclosing in info.chains[rep.sid]:
                if enclosing.var != loop_var:
                    cost = cost * info.trips[enclosing.var]
            total = total + cost
        self._cost_cache.put(key, total)
        return total

    def loop_costs(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> dict[str, Poly]:
        """LoopCost for every loop of the nest, keyed by index var."""
        info = self.nest_info(root, outer)
        return {
            loop.var: self.loop_cost(root, loop.var, outer) for loop in info.loops
        }

    # ------------------------------------------------------------------
    # Memory order
    # ------------------------------------------------------------------
    def memory_order(
        self, root: "Loop | Program", outer: tuple[Loop, ...] = ()
    ) -> list[str]:
        """Loop vars ordered outermost-to-innermost by descending cost.

        Ties keep the loops' original relative order (stable), so an
        already-optimal nest maps to itself.
        """
        info = self.nest_info(root, outer)
        costs = self.loop_costs(root, outer)
        original = [loop.var for loop in info.loops]
        return sorted(original, key=lambda v: -costs[v].magnitude())

    def rank_permutations(self, root: "Loop | Program") -> list[tuple[str, ...]]:
        """All loop orders of a nest ranked cheapest-first by the model.

        The cost of an order is the LoopCost of its innermost loop — the
        paper's observation that the innermost loop dominates — with outer
        positions as tie-breakers.
        """
        import itertools

        info = self.nest_info(root)
        costs = self.loop_costs(root)
        orders = itertools.permutations([loop.var for loop in info.loops])
        return sorted(
            orders,
            key=lambda order: tuple(costs[v].magnitude() for v in reversed(order)),
        )
