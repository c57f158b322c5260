"""Data dependence analysis: tests, vectors, pair driver, graph."""

from repro.dependence.graph import DependenceGraph, strongly_connected_components
from repro.dependence.parallel import carried_levels, is_vectorizable, parallel_loops
from repro.dependence.pairs import (
    ANTI,
    FLOW,
    INPUT,
    OUTPUT,
    Dependence,
    RefSite,
    region_dependences,
)
from repro.dependence.tests import analyze_ref_pair
from repro.dependence.vector import DepVector

__all__ = [
    "ANTI",
    "FLOW",
    "INPUT",
    "OUTPUT",
    "Dependence",
    "DependenceGraph",
    "DepVector",
    "RefSite",
    "analyze_ref_pair",
    "carried_levels",
    "is_vectorizable",
    "parallel_loops",
    "region_dependences",
    "strongly_connected_components",
]
