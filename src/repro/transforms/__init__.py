"""Compound loop transformations: permutation, reversal, fusion,
distribution, and the integrated Compound driver (paper §4)."""

from repro.transforms.bounds import permuted_bounds
from repro.transforms.compound import (
    CompoundOutcome,
    NestReport,
    compound,
    optimize_nest,
)
from repro.transforms.distribution import (
    DistributeOutcome,
    distribute_nest,
    finest_partitions,
)
from repro.transforms.fusion import (
    FusionOutcome,
    compatible_depth,
    fuse_adjacent,
    fuse_all,
    fuse_pair,
    fusion_preventing,
)
from repro.transforms.legality import (
    constraining_vectors,
    order_is_legal,
    prefix_is_legal,
)
from repro.transforms.permute import PermuteResult, apply_order, permute_nest
from repro.transforms.scalar_replace import ScalarReplaceResult, scalar_replace_program
from repro.transforms.tiling import TileResult, choose_tile_loops, strip_mine, tile_nest
from repro.transforms.unroll_jam import unroll_and_jam, unroll_and_jam_program

__all__ = [
    "CompoundOutcome",
    "DistributeOutcome",
    "FusionOutcome",
    "NestReport",
    "PermuteResult",
    "apply_order",
    "compatible_depth",
    "compound",
    "constraining_vectors",
    "distribute_nest",
    "finest_partitions",
    "fuse_adjacent",
    "fuse_all",
    "fuse_pair",
    "fusion_preventing",
    "optimize_nest",
    "order_is_legal",
    "permute_nest",
    "permuted_bounds",
    "prefix_is_legal",
    "ScalarReplaceResult",
    "TileResult",
    "choose_tile_loops",
    "scalar_replace_program",
    "strip_mine",
    "tile_nest",
    "unroll_and_jam",
    "unroll_and_jam_program",
]
