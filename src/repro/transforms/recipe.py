"""Transform recipes: how a candidate program was built from its original.

A lint fix-it or an autotune candidate is a whole rewritten program. Its
*recipe* is the list of structural rewrites that produced it, each with
size-independent arguments only: a loop order and the reversed loops, a
fusion depth, a distribution split, tile sizes. Replaying the recipe on
the original reproduces the candidate; replaying it on a copy of the
original whose trip counts were capped builds the same transformation at
a size the interpreter and the brute-force dependence oracle check in
milliseconds (see :mod:`repro.lint.verifyfix`).

Replay runs no legality test and no cost model: every decision is taken
from the record. A recipe that encodes an illegal rewrite replays to an
illegal program, which is what verification must be shown.

Nodes are addressed by *paths* (:mod:`repro.ir.visit`): body indices
from the program body down to the node, e.g. ``(2,)`` for the third
top-level item and ``(2, 0)`` for the first item in its body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.nodes import Program
from repro.ir.visit import Path, loops_above, node_at, replace_at

__all__ = [
    "Recipe",
    "Permute",
    "Tile",
    "Fuse",
    "Distribute",
    "ScalarReplace",
]

def _fit_tile(size: int, trip: int) -> int:
    """A tile size for a loop of ``trip`` iterations, derived from ``size``.

    ``size`` itself when it splits the loop into several whole tiles;
    otherwise its largest divisor that splits the loop in at least two
    (1 for a one-iteration loop). Capped replays thus keep tiling, with
    tiles as small as the capped trip counts need.
    """
    if size < trip and trip % size == 0:
        return size
    return math.gcd(size, max(trip // 2, 1))


@dataclass(frozen=True)
class Permute:
    """Reorder (and reverse loops of) the perfect nest at ``path``."""

    path: Path
    order: tuple[str, ...]
    reversed: tuple[str, ...] = ()

    def apply(self, program: Program) -> Program:
        from repro.transforms.permute import apply_order

        nest = node_at(program.body, self.path)
        rebuilt = apply_order(
            nest.perfect_nest_loops(),  # type: ignore[union-attr]
            self.order,
            set(self.reversed),
            loops_above(program.body, self.path),
        )
        return program.with_body(replace_at(program.body, self.path, (rebuilt,)))


@dataclass(frozen=True)
class Tile:
    """Tile loops of the perfect nest at ``path``, sizes fitted to its trips."""

    path: Path
    tiles: tuple[tuple[str, int], ...]

    def apply(self, program: Program) -> Program:
        from repro.transforms.tiling import tile_nest

        nest = node_at(program.body, self.path)
        chain = {loop.var: loop for loop in nest.perfect_nest_loops()}  # type: ignore[union-attr]
        sizes = {}
        for var, size in self.tiles:
            trip = chain[var].constant_trip()
            # A symbolic trip count is left to strip_mine to refuse.
            if trip is not None:
                size = _fit_tile(size, trip)
            sizes[var] = size
        tiled = tile_nest(nest, sizes, check=False).loop  # type: ignore[arg-type]
        return program.with_body(replace_at(program.body, self.path, (tiled,)))


@dataclass(frozen=True)
class Fuse:
    """Fuse items of the body at ``path`` (``()``: the program body).

    ``merges`` is a :attr:`repro.transforms.fusion.FusionOutcome.merges`
    record: ``(a, b, depth)`` fuses item ``b`` into item ``a``.
    """

    path: Path
    merges: tuple[tuple[int, int, int], ...]

    def apply(self, program: Program) -> Program:
        from repro.transforms.fusion import replay_fusion

        if not self.path:
            return program.with_body(replay_fusion(program.body, self.merges))
        loop = node_at(program.body, self.path)
        fused = loop.with_body(replay_fusion(loop.body, self.merges))  # type: ignore[union-attr]
        return program.with_body(replace_at(program.body, self.path, (fused,)))


@dataclass(frozen=True)
class Distribute:
    """Repeat a recorded distribution of the nest at ``path``."""

    path: Path
    target: Path
    partitions: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    orders: tuple[tuple[tuple[str, ...], tuple[str, ...]] | None, ...]

    @staticmethod
    def of(path: Path, outcome) -> "Distribute":
        """The step that repeats a :class:`DistributeOutcome` at ``path``."""
        return Distribute(
            path, outcome.target_path, outcome.partitions, outcome.names, outcome.orders
        )

    def apply(self, program: Program) -> Program:
        from repro.transforms.distribution import replay_distribution

        nodes = replay_distribution(
            node_at(program.body, self.path),  # type: ignore[arg-type]
            self.target,
            self.partitions,
            self.names,
            self.orders,
            loops_above(program.body, self.path),
        )
        return program.with_body(replace_at(program.body, self.path, nodes))


@dataclass(frozen=True)
class ScalarReplace:
    """Promote every promotable invariant reference (a syntactic rewrite)."""

    def apply(self, program: Program) -> Program:
        from repro.transforms.scalar_replace import scalar_replace_program

        return scalar_replace_program(program).program


@dataclass(frozen=True)
class Recipe:
    """An ordered list of rewrite steps; the empty recipe is the identity."""

    steps: tuple = ()

    def then(self, *steps) -> "Recipe":
        return Recipe(self.steps + steps)

    def replay(self, program: Program) -> Program:
        for step in self.steps:
            program = step.apply(program)
        return program
