"""Differential verification subsystem.

Six oracles, each differential against ground truth that is
independent of the code under test:

* :mod:`repro.verify.depforce` — brute-force dependence enumeration;
  the analytic ZIV/SIV/MIV vectors must *cover* the exact set.
* :mod:`repro.verify.oracles` — execution equivalence; every transform
  the legality layer admits must leave final array state bit-identical
  under the interpreter.  Rejected transforms are force-applied where
  mechanically possible to measure over-conservatism.
* :mod:`repro.verify.cachecheck` — batched (`access_block`) vs scalar
  (`access`) cache engines on random streams and geometries.
* :mod:`repro.verify.localitycheck` — the analytic locality predictor
  vs the exact reuse-distance histogram of the trace.
* :mod:`repro.verify.lintcheck` — lint fix-its are equivalent and
  never raise the predicted miss count.
* :mod:`repro.verify.tunecheck` — autotuned configurations are
  legality-approved, equivalent and miss-monotone.

Each reports a :class:`~repro.verify.oracles.Mismatch`.
:mod:`repro.verify.gennest` generates the random programs,
:mod:`repro.verify.shrink` minimizes failures, and
:mod:`repro.verify.runner` runs every oracle on each case in one pass
behind ``python -m repro verify --fuzz N --seed S [--shrink]``.
"""

from repro.verify.depforce import (
    analysis_covers,
    brute_force_dependences,
    enumerate_accesses,
    vector_covers,
)
from repro.verify.gennest import DEFAULT_CONFIG, GenConfig, generate_program
from repro.verify.oracles import Trial, TrialResult, check_trial, run_state, transform_trials
from repro.verify.runner import Failure, FuzzReport, replay_case, run_fuzz
from repro.verify.shrink import program_in_bounds, shrink_program

__all__ = [
    "analysis_covers",
    "brute_force_dependences",
    "enumerate_accesses",
    "vector_covers",
    "GenConfig",
    "DEFAULT_CONFIG",
    "generate_program",
    "Trial",
    "TrialResult",
    "check_trial",
    "run_state",
    "transform_trials",
    "Failure",
    "FuzzReport",
    "replay_case",
    "run_fuzz",
    "program_in_bounds",
    "shrink_program",
]
