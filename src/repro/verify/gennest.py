"""Seeded random generator of small affine loop-nest programs.

Produces concrete (parameter-free) programs that exercise the tricky
corners of the pipeline: imperfect nesting, negative strides, non-unit
strides, triangular bounds, coupled subscripts, constant subscripts,
scalar temporaries, and self-referencing recurrences.  Every generated
program is safe to interpret:

* loop trip counts are tiny (a handful of iterations per level);
* array subscripts are shifted so every access stays in bounds — the
  generator tracks the value range of each affine subscript by interval
  arithmetic over the loop value ranges and sizes the declarations to
  the maximum touched location;
* right-hand sides are *linear*: sums/differences of references,
  optionally scaled by a small constant, plus loop variables and
  constants.  No ref*ref products, divisions, or intrinsics, so
  multiplicative recurrences cannot blow values up over the few hundred
  statement instances a nest executes.

Linearity matters for the execution-equivalence oracle: a legal
(dependence-preserving) transformation reorders whole statement
instances but never the operations *within* one instance, so the final
array state is bit-identical — even in floating point — as long as the
values stay deterministic.

Determinism: everything derives from the caller-supplied
``random.Random``, so a (seed, case index) pair pins a program exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.affine import Affine
from repro.ir.expr import Bin, Const, Expr, Ref, Var
from repro.ir.nodes import ArrayDecl, Assign, Loop, Program

__all__ = ["GenConfig", "generate_program", "DEFAULT_CONFIG"]

_LOOP_VARS = ("I", "J", "K", "L")
_ARRAY_NAMES = ("A", "B", "C")
_SCALAR_NAME = "S"


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the shape distribution of generated nests."""

    max_depth: int = 3
    max_rank: int = 2
    max_trip: int = 6
    max_arrays: int = 3
    max_rhs_terms: int = 3
    max_coeff: int = 2
    p_second_nest: float = 0.35
    p_imperfect: float = 0.35
    p_negative_step: float = 0.15
    p_step2: float = 0.10
    p_triangular: float = 0.20
    p_coupled: float = 0.15
    p_scalar: float = 0.15
    p_const_sub: float = 0.10


DEFAULT_CONFIG = GenConfig()


class _Gen:
    def __init__(self, rng: random.Random, cfg: GenConfig) -> None:
        self.rng = rng
        self.cfg = cfg
        n_arrays = rng.randint(2, max(2, cfg.max_arrays))
        self.arrays: dict[str, list[int]] = {}
        self.ranks: dict[str, int] = {}
        for name in _ARRAY_NAMES[:n_arrays]:
            rank = rng.randint(1, cfg.max_rank)
            self.ranks[name] = rank
            self.arrays[name] = [1] * rank
        self.uses_scalar = False

    # ------------------------------------------------------------------
    # Loop headers
    # ------------------------------------------------------------------
    def gen_loop(
        self, var: str, depth_left: int, ranges: dict[str, tuple[int, int]]
    ) -> Loop:
        rng, cfg = self.rng, self.cfg
        trip = rng.randint(2, cfg.max_trip)
        lb_const = rng.randint(1, 2)
        lb: Affine
        ub: Affine
        step = 1
        r = rng.random()
        outer_candidates = [
            v for v, (vlo, vhi) in ranges.items() if vlo <= vhi
        ]
        if r < cfg.p_negative_step:
            # DO var = hi, lo, -1
            step = -1
            hi_const = lb_const + trip - 1
            lb = Affine.constant(hi_const)
            ub = Affine.constant(lb_const)
            vrange = (lb_const, hi_const)
        elif r < cfg.p_negative_step + cfg.p_step2:
            step = 2
            lb = Affine.constant(lb_const)
            ub = Affine.constant(lb_const + 2 * (trip - 1))
            vrange = (lb_const, lb_const + 2 * (trip - 1))
        elif r < cfg.p_negative_step + cfg.p_step2 + cfg.p_triangular and outer_candidates:
            outer = rng.choice(outer_candidates)
            olo, ohi = ranges[outer]
            if rng.random() < 0.5:
                # DO var = outer+d, HI  (lower triangular)
                d = rng.choice((-1, 0))
                hi_const = ohi + rng.randint(0, 2)
                lb = Affine.var(outer) + d
                ub = Affine.constant(hi_const)
                vrange = (olo + d, hi_const)
            else:
                # DO var = LO, outer+d  (upper triangular)
                d = rng.choice((0, 1))
                lb = Affine.constant(min(lb_const, olo))
                ub = Affine.var(outer) + d
                vrange = (lb.const, ohi + d)
        else:
            lb = Affine.constant(lb_const)
            ub = Affine.constant(lb_const + trip - 1)
            vrange = (lb_const, lb_const + trip - 1)

        inner_ranges = dict(ranges)
        inner_ranges[var] = vrange
        body = self.gen_body(var, depth_left - 1, inner_ranges)
        return Loop(var, lb, ub, step, tuple(body))

    def gen_body(
        self, var: str, depth_left: int, ranges: dict[str, tuple[int, int]]
    ) -> list["Loop | Assign"]:
        rng, cfg = self.rng, self.cfg
        depth = len(ranges)
        if depth_left <= 0 or depth >= len(_LOOP_VARS):
            n = rng.randint(1, 2)
            return [self.gen_assign(ranges) for _ in range(n)]
        inner = self.gen_loop(_LOOP_VARS[depth], depth_left, ranges)
        body: list[Loop | Assign] = [inner]
        if rng.random() < cfg.p_imperfect:
            stmt = self.gen_assign(ranges)
            if rng.random() < 0.5:
                body.insert(0, stmt)
            else:
                body.append(stmt)
        return body

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def gen_subscript(self, ranges: dict[str, tuple[int, int]]) -> Affine:
        rng, cfg = self.rng, self.cfg
        in_scope = list(ranges)
        form = Affine.constant(rng.randint(-2, 2))
        if in_scope and rng.random() >= cfg.p_const_sub:
            coeffs = [1] * 6 + [-1, 2][: cfg.max_coeff]
            v = rng.choice(in_scope)
            form = form + Affine.var(v, rng.choice(coeffs))
            if len(in_scope) > 1 and rng.random() < cfg.p_coupled:
                other = rng.choice([w for w in in_scope if w != v])
                form = form + Affine.var(other, rng.choice((1, -1)))
        # Shift so the minimum touched location is >= 1.
        lo, _ = form.interval(ranges)
        if lo < 1:
            form = form + (1 - lo)
        return form

    def gen_ref(self, ranges: dict[str, tuple[int, int]]) -> Ref:
        rng = self.rng
        if rng.random() < self.cfg.p_scalar:
            self.uses_scalar = True
            return Ref(_SCALAR_NAME, ())
        name = rng.choice(list(self.arrays))
        subs = tuple(self.gen_subscript(ranges) for _ in range(self.ranks[name]))
        for dim, sub in enumerate(subs):
            _, hi = sub.interval(ranges)
            self.arrays[name][dim] = max(self.arrays[name][dim], hi)
        return Ref(name, subs)

    def gen_term(self, ranges: dict[str, tuple[int, int]]) -> Expr:
        rng = self.rng
        r = rng.random()
        if r < 0.70:
            term: Expr = self.gen_ref(ranges)
            if rng.random() < 0.25:
                term = Bin("*", Const(rng.choice((2, 3))), term)
            return term
        if r < 0.85 and ranges:
            return Var(rng.choice(list(ranges)))
        return Const(rng.randint(1, 3))

    def gen_assign(self, ranges: dict[str, tuple[int, int]]) -> Assign:
        rng, cfg = self.rng, self.cfg
        lhs = self.gen_ref(ranges)
        rhs = self.gen_term(ranges)
        for _ in range(rng.randint(0, cfg.max_rhs_terms - 1)):
            rhs = Bin(rng.choice("+-"), rhs, self.gen_term(ranges))
        return Assign(lhs, rhs)

    # ------------------------------------------------------------------
    # Whole programs
    # ------------------------------------------------------------------
    def gen_program(self, name: str) -> Program:
        rng, cfg = self.rng, self.cfg
        body: list[Loop | Assign] = []
        n_nests = 1 + (rng.random() < cfg.p_second_nest)
        for _ in range(n_nests):
            depth = rng.randint(1, cfg.max_depth)
            body.append(self.gen_loop(_LOOP_VARS[0], depth, {}))
        decls = [
            ArrayDecl.make(arr, [max(1, e) for e in extents])
            for arr, extents in self.arrays.items()
            if _array_used(body, arr)
        ]
        if self.uses_scalar:
            decls.append(ArrayDecl.make(_SCALAR_NAME, []))
        return Program.make(name, body, decls)


def _array_used(body: list, name: str) -> bool:
    def in_node(node) -> bool:
        if isinstance(node, Assign):
            return any(ref.array == name for ref in node.refs)
        return any(in_node(child) for child in node.body)

    return any(in_node(node) for node in body)


def generate_program(
    rng: random.Random,
    config: GenConfig = DEFAULT_CONFIG,
    name: str = "FUZZ",
) -> Program:
    """Generate one random concrete program from ``rng``."""
    return _Gen(rng, config).gen_program(name)
