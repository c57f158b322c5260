"""Candidate enumeration: the autotuner's search space.

The space is the cross product of three transform axes, every leg of
which goes through the repository's existing legality machinery:

* **loop permutation** — all legal orders of each top-level perfect
  nest, filtered by :func:`repro.transforms.legality.order_is_legal`
  over the nest's constraining dependence vectors and ranked by the
  paper's LoopCost model (cheapest innermost first);
* **tile sizes** — a capacity-model-seeded ladder per nest: power-of-two
  divisors of the (constant) trip counts of the §6 tile loops, kept only
  when :func:`repro.model.capacity.fits_in_cache` approves the tiled
  inner working set, applied through :func:`tile_nest` with its
  full-permutability legality check on;
* **fusion/distribution** — whole-program variants built from the
  dependence graph: greedy fusion of adjacent compatible nests (with and
  without the model's benefit requirement) and maximal distribution of
  imperfect nests.

Symbolic-trip loops cannot be strip-mined by the IR (``MIN`` bounds are
unsupported; see :mod:`repro.transforms.tiling`), so the tile ladder is
empty for parametric-bound nests and the search falls back to the
permutation × fusion axes there.

Every enumerated configuration carries a :class:`NestPlan` provenance
record stating which legality path admitted it (``original`` for the
untouched order, ``checked`` for anything the legality checker had to
approve), which the property tests and the fuzz oracle audit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import TransformError
from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import iter_loops
from repro.model.capacity import fits_in_cache
from repro.model.loopcost import CostModel
from repro.model.oracle import OracleCost
from repro.transforms.distribution import distribute_nest
from repro.transforms.fusion import fuse_adjacent
from repro.transforms import legality
from repro.transforms.permute import apply_order
from repro.transforms.recipe import Distribute, Fuse, Permute, Recipe, Tile
from repro.transforms.tiling import choose_tile_loops, tile_nest

__all__ = [
    "Candidate",
    "NestPlan",
    "ORIGINAL",
    "CHECKED",
    "fusion_variants",
    "legal_orders",
    "nest_options",
    "nest_slots",
    "tile_ladder",
]

#: Legality provenance slugs.
ORIGINAL = "original"  # untouched configuration, trivially legal
CHECKED = "checked"  # approved by the legality checker

#: Permutations are enumerated exhaustively only up to this chain depth
#: (6! = 720 legality checks); deeper nests fall back to the model's
#: preferred order plus the original.
MAX_ENUM_DEPTH = 6

#: Tile-size ladder: power-of-two candidates the capacity model prunes.
TILE_SIZES = (4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class NestPlan:
    """Provenance of one top-level nest's chosen configuration."""

    slot: int  # body index of the nest in its variant program
    original: tuple[str, ...]  # perfect-chain order before
    order: tuple[str, ...]  # chosen order (== original when untouched)
    tiles: tuple[tuple[str, int], ...] = ()  # (var, size), sorted
    legality: str = ORIGINAL

    def steps(self) -> tuple:
        """The recipe steps that apply this plan to its nest."""
        steps: tuple = ()
        if self.order != self.original:
            steps += (Permute((self.slot,), self.order),)
        if self.tiles:
            steps += (Tile((self.slot,), self.tiles),)
        return steps


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a whole transformed program.

    ``text`` is the canonical pretty-printed form — the dedupe and memo
    key. ``source`` records how the candidate arose (``original``,
    ``compound``, or ``search``); ``fusion`` the fusion/distribution
    variant it was derived from; ``plans`` the per-nest provenance.
    ``cost`` is the planning oracle's verdict, ``sim`` the simulation
    oracle's (populated only by the top-k rerank). ``recipe`` rebuilds
    ``program`` from the original (None for the compound output, whose
    decisions are not recorded); verification replays it.
    """

    program: Program
    text: str
    source: str
    fusion: str
    plans: tuple[NestPlan, ...] = ()
    cost: OracleCost | None = None
    sim: OracleCost | None = None
    recipe: Recipe | None = None

    def describe(self) -> str:
        """One-line human summary of the configuration."""
        parts: list[str] = []
        if self.fusion not in ("none", ""):
            parts.append(self.fusion)
        for plan in self.plans:
            if plan.order != plan.original:
                parts.append(f"{'.'.join(plan.original)}->{'.'.join(plan.order)}")
            for var, size in plan.tiles:
                parts.append(f"tile {var}={size}")
        if self.source == "compound" and not parts:
            parts.append("compound")
        return ", ".join(parts) if parts else "unchanged"


def nest_slots(program: Program) -> list[int]:
    """Body indices of the analyzable nests (depth >= 2 loops)."""
    return [
        index
        for index, item in enumerate(program.body)
        if isinstance(item, Loop) and item.depth >= 2
    ]


def legal_orders(
    nest: Loop, model: CostModel, cap: int = 8
) -> list[tuple[str, ...]]:
    """Legal permutations of the nest's perfect chain, model-ranked.

    Every returned order passed :func:`order_is_legal` over the nest's
    constraining dependence vectors (the original order vacuously so).
    Orders are ranked by the LoopCost of their innermost loop (outer
    positions break ties), cheapest first, and truncated to ``cap``.
    """
    chain = nest.perfect_nest_loops()
    if len(chain) < 2:
        return []
    original = tuple(loop.var for loop in chain)
    vectors = legality.constraining_vectors(nest)
    index_of = {var: i for i, var in enumerate(original)}
    if len(chain) <= MAX_ENUM_DEPTH:
        orders = itertools.permutations(original)
    else:
        desired = tuple(
            v for v in model.memory_order(nest) if v in index_of
        )
        orders = iter({original, desired})
    legal = [
        order
        for order in orders
        if order == original
        # Looked up per call, so a patched legality check applies.
        or legality.order_is_legal(vectors, [index_of[v] for v in order])
    ]
    costs = model.loop_costs(nest)
    legal.sort(
        key=lambda order: tuple(costs[v].magnitude() for v in reversed(order))
    )
    return legal[:cap]


def tile_ladder(
    nest: Loop,
    model: CostModel,
    cache_bytes: int,
    line_bytes: int,
    env: dict | None = None,
    max_options: int = 2,
) -> list[tuple[tuple[tuple[str, int], ...], Loop]]:
    """Capacity-seeded tilings of a perfect nest: ``[(tiles, tiled_nest)]``.

    Tile loops come from the §6 criterion (:func:`choose_tile_loops`);
    sizes from :data:`TILE_SIZES` restricted to divisors of the constant
    trip counts; each tiling is applied through :func:`tile_nest` with
    the full-permutability legality check enabled and kept only when the
    capacity model says the tiled inner working set fits. The largest
    fitting sizes win (they amortize tile-loop overhead best).
    """
    chain = nest.perfect_nest_loops()
    if len(chain) < 2:
        return []
    by_var = {loop.var: loop for loop in chain}
    trips: dict[str, int] = {}
    for var in choose_tile_loops(nest, model):
        loop = by_var.get(var)
        trip = loop.constant_trip() if loop is not None and loop.step == 1 else None
        if trip is not None and trip > 1:
            trips[var] = trip
    if not trips:
        return []
    ladder: list[tuple[tuple[tuple[str, int], ...], Loop]] = []
    for size in TILE_SIZES:
        tiles = {
            var: size
            for var, trip in trips.items()
            if size < trip and trip % size == 0
        }
        if not tiles:
            continue
        try:
            result = tile_nest(nest, tiles, check=True)
        except TransformError:
            # The band is not fully permutable: no tiling of this nest
            # is legal, whatever the sizes.
            return []
        if fits_in_cache(result.loop, model, cache_bytes, line_bytes, env):
            ladder.append((tuple(sorted(tiles.items())), result.loop))
    return ladder[-max_options:]


def nest_options(
    nest: Loop,
    slot: int,
    model: CostModel,
    cache_bytes: int,
    line_bytes: int,
    env: dict | None = None,
    max_orders: int = 6,
    max_tilings: int = 2,
) -> list[tuple[Loop, NestPlan]]:
    """Configurations of one nest: identity, legal orders, tilings."""
    chain = nest.perfect_nest_loops()
    original = tuple(loop.var for loop in chain)
    options: list[tuple[Loop, NestPlan]] = [
        (nest, NestPlan(slot, original, original, (), ORIGINAL))
    ]
    if len(chain) < 2:
        return options
    for order in legal_orders(nest, model, cap=max_orders):
        if order == original:
            rebuilt = nest
        else:
            try:
                rebuilt = apply_order(chain, order, set())
            except TransformError:
                continue  # bounds defeat the reordering (triangular coupling)
            options.append(
                (rebuilt, NestPlan(slot, original, order, (), CHECKED))
            )
        for tiles, tiled in tile_ladder(
            rebuilt, model, cache_bytes, line_bytes, env, max_tilings
        ):
            options.append(
                (tiled, NestPlan(slot, original, order, tiles, CHECKED))
            )
    return options


def fusion_variants(
    program: Program,
    model: CostModel,
    cache_capacity: "tuple[int, int] | None" = None,
) -> list[tuple[str, Program, Recipe]]:
    """Whole-program fusion/distribution variants, deduped by text.

    The identity variant comes first; then greedy fusion of adjacent
    compatible nests with the model's benefit requirement on and off
    (both capacity-vetoed when ``cache_capacity`` is given), then
    maximal distribution of every distributable nest. All legality goes
    through the transforms' own dependence-graph checks. Each variant
    comes as ``(label, program, recipe)``, the recipe rebuilding it from
    ``program``.
    """
    from repro.ir.pretty import pretty_program

    variants: list[tuple[str, Program, Recipe]] = [("none", program, Recipe())]
    for label, require_benefit in (("fuse", True), ("fuse-all", False)):
        outcome = fuse_adjacent(
            tuple(program.body),
            model,
            require_benefit=require_benefit,
            cache_capacity=cache_capacity,
            param_env=program.param_env,
        )
        if outcome.fused:
            variants.append(
                (
                    label,
                    program.with_body(outcome.items),
                    Recipe((Fuse((), outcome.merges),)),
                )
            )

    used = {loop.var for loop in iter_loops(program)}
    body: list[Loop | Assign] = []
    steps: list[Distribute] = []
    for item in program.body:
        if isinstance(item, Loop) and item.depth >= 2:
            outcome_d = distribute_nest(item, model, used_names=used)
            if outcome_d is not None:
                steps.append(Distribute.of((len(body),), outcome_d))
                body.extend(outcome_d.nodes)
                used |= {
                    loop.var
                    for node in outcome_d.nodes
                    if isinstance(node, Loop)
                    for loop in iter_loops(node)
                }
                continue
        body.append(item)
    if steps:
        variants.append(
            ("distribute", program.with_body(tuple(body)), Recipe(tuple(steps)))
        )

    seen: set[str] = set()
    unique: list[tuple[str, Program, Recipe]] = []
    for label, variant, recipe in variants:
        text = pretty_program(variant)
        if text in seen:
            continue
        seen.add(text)
        unique.append((label, variant, recipe))
    return unique
