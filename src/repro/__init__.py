"""repro — a reproduction of Carr, McKinley & Tseng,
"Compiler Optimizations for Improving Data Locality" (ASPLOS 1994).

The package implements the paper's cache cost model (RefGroup / RefCost /
LoopCost), the compound loop transformations (permutation, reversal,
fusion, distribution), and every substrate the evaluation needs: a
mini-Fortran frontend, data dependence analysis, a loop-nest interpreter
and trace compiler, set-associative cache simulation, and the benchmark
suite + experiment harness that regenerates the paper's tables and
figures.

Typical use::

    from repro import parse_program, CostModel, compound, simulate

    program = parse_program(source)
    outcome = compound(program, CostModel(cls=4))
    perf = simulate(outcome.program)
"""

from repro.cache import CACHE1, CACHE2, CacheConfig, CacheStats, SetAssocCache
from repro.errors import (
    DependenceError,
    ExecutionError,
    IRError,
    NonAffineError,
    ParseError,
    ReproError,
    TransformError,
)
from repro.exec import Interpreter, Machine, PerfResult, run_program, simulate
from repro.frontend import parse_program
from repro.ir import (
    Affine,
    ArrayDecl,
    Assign,
    Loop,
    Program,
    ProgramBuilder,
    Ref,
    pretty_program,
    validate_program,
)
from repro.ir.poly import Poly
from repro.model import CostModel
from repro.obs import (
    MetricsRegistry,
    Obs,
    Remark,
    Tracer,
    get_obs,
    set_obs,
    use_obs,
)
from repro.stats import collect_access_properties, collect_program_stats
from repro.transforms import (
    CompoundOutcome,
    compound,
    distribute_nest,
    fuse_adjacent,
    permute_nest,
)

__version__ = "1.0.0"

__all__ = [
    "Affine",
    "ArrayDecl",
    "Assign",
    "CACHE1",
    "CACHE2",
    "CacheConfig",
    "CacheStats",
    "CompoundOutcome",
    "CostModel",
    "DependenceError",
    "ExecutionError",
    "IRError",
    "Interpreter",
    "Loop",
    "Machine",
    "MetricsRegistry",
    "NonAffineError",
    "Obs",
    "ParseError",
    "PerfResult",
    "Poly",
    "Program",
    "ProgramBuilder",
    "Ref",
    "Remark",
    "ReproError",
    "SetAssocCache",
    "Tracer",
    "TransformError",
    "collect_access_properties",
    "collect_program_stats",
    "compound",
    "distribute_nest",
    "fuse_adjacent",
    "get_obs",
    "parse_program",
    "permute_nest",
    "pretty_program",
    "run_program",
    "set_obs",
    "simulate",
    "use_obs",
    "validate_program",
    "__version__",
]
