"""Loop tiling (paper §6): strip-mine + permutation for cache reuse.

Memory order maximizes short-term reuse across inner-loop iterations;
tiling captures *long-term* reuse carried by outer loops once the cache
is large enough. Per the paper, the primary profitability criterion is
creating loop-invariant references with respect to the target loop.

This module provides the mechanism and a simple model-driven driver:

* :func:`strip_mine` — split one loop into a tile loop and an element
  loop (requires statically divisible trip counts, the common case for
  the paper's kernels; anything else raises TransformError rather than
  producing ``MIN``-bounded loops the IR cannot express);
* :func:`tile_nest` — strip-mine several loops of a perfect nest and
  hoist the tile loops outward (legal when the tiled band is fully
  permutable);
* :func:`choose_tile_loops` — the §6 criterion: tile the loops that
  carry loop-invariant reuse for some reference group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransformError
from repro.ir.affine import Affine
from repro.ir.nodes import Loop
from repro.ir.visit import fresh_name, iter_loops
from repro.model.loopcost import CostModel, INVARIANT
from repro.transforms.legality import constraining_vectors

__all__ = ["strip_mine", "tile_nest", "choose_tile_loops", "TileResult"]


def strip_mine(loop: Loop, tile: int, used_names: set[str]) -> Loop:
    """Split ``loop`` into a tile loop enclosing an element loop.

    ``DO I = lb, ub`` becomes ``DO I_t = lb, ub, T / DO I = I_t, I_t+T-1``.

    Raises:
        TransformError: non-unit step, non-constant bounds, or a trip
            count not divisible by ``tile``.
    """
    if tile <= 0:
        raise TransformError(f"tile size must be positive, got {tile}")
    if loop.step != 1:
        raise TransformError(f"cannot strip-mine loop {loop.var} with step {loop.step}")
    trip = loop.constant_trip()
    if trip is None:
        raise TransformError(
            f"cannot strip-mine loop {loop.var}: symbolic trip count"
        )
    if trip % tile:
        raise TransformError(
            f"loop {loop.var}: trip {trip} not divisible by tile {tile}"
        )
    tile_var = fresh_name(f"{loop.var}_T", used_names)
    used_names.add(tile_var)
    element = Loop(
        loop.var,
        Affine.var(tile_var),
        Affine.var(tile_var) + (tile - 1),
        1,
        loop.body,
    )
    return Loop(tile_var, loop.lb, loop.ub, tile, (element,))


@dataclass(frozen=True)
class TileResult:
    loop: Loop
    tiled_vars: tuple[str, ...]
    tile_vars: tuple[str, ...]


def tile_nest(nest_root: Loop, tiles: dict[str, int], check: bool = True) -> TileResult:
    """Tile the named loops of a perfect nest.

    The tile (controlling) loops are hoisted to the top of the nest in
    the original relative order; the element loops stay in place. Tiling
    is legal when the whole nest band is fully permutable — every
    dependence component of the nest's vectors is non-negative — which is
    checked conservatively. ``check=False`` skips the legality check only
    (mechanical restrictions still apply); the differential verifier uses
    it to force-apply rejected tilings and measure over-conservatism.

    Raises:
        TransformError: unknown loop names, illegal band, or strip-mining
            restrictions (see :func:`strip_mine`).
    """
    chain = nest_root.perfect_nest_loops()
    by_var = {loop.var: loop for loop in chain}
    unknown = set(tiles) - set(by_var)
    if unknown:
        raise TransformError(f"loops {sorted(unknown)} not in nest")
    if not tiles:
        return TileResult(nest_root, (), ())

    if check:
        for vec in constraining_vectors(nest_root):
            for comp in vec.components:
                negative = (isinstance(comp, int) and comp < 0) or comp in (">", "*")
                if negative:
                    raise TransformError(
                        f"nest is not fully permutable (vector {vec}); tiling "
                        "would reorder a dependence"
                    )

    used = {loop.var for loop in iter_loops(nest_root)}
    body = chain[-1].body
    tile_loops: list[Loop] = []
    element_loops: list[Loop] = []
    for loop in chain:
        if loop.var in tiles:
            mined = strip_mine(loop, tiles[loop.var], used)
            tile_loops.append(mined)  # element loop is mined.body[0]
            element_loops.append(mined.body[0])
        else:
            element_loops.append(loop)

    node: tuple = body
    for loop in reversed(element_loops):
        node = (loop.with_body(node),)
    for mined in reversed(tile_loops):
        node = (mined.with_body(node),)
    result = node[0]
    return TileResult(
        result,
        tuple(tiles),
        tuple(m.var for m in tile_loops),
    )


def choose_tile_loops(nest_root: Loop, model: CostModel | None = None) -> list[str]:
    """Loops worth tiling per §6: those some reference group is invariant
    with respect to (their reuse is carried across full sweeps of the
    other loops, which tiling turns into cache-resident reuse)."""
    model = model or CostModel()
    info = model.nest_info(nest_root)
    chain = nest_root.perfect_nest_loops()
    candidates = []
    for loop in chain[:-1]:  # the innermost already exploits its reuse
        groups = model.groups(nest_root, loop.var)
        invariant = sum(
            1
            for g in groups
            if model.ref_cost_kind(g.representative.ref, loop) == INVARIANT
            and g.representative.ref.subs  # scalars carry no line reuse
        )
        if invariant:
            candidates.append(loop.var)
    return candidates
