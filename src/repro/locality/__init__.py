"""repro.locality — reuse-distance engines and analytic miss-ratio prediction.

Three layers, cheapest last:

* :mod:`repro.locality.histogram` — the interpreter-fed per-reference
  oracle for the exact block-fed analyzer in :mod:`repro.cache.reuse`
  (re-exported here as ``per_ref_profile``);
* :mod:`repro.locality.analytic` — the trace-free predictor deriving a
  reuse-distance histogram and FA-LRU / set-associative miss ratios
  from affine subscripts, bounds, and layout;
* :mod:`repro.locality.polysum` — exact iteration counting by
  polynomial summation, compiled once per chain shape and shared by the
  predictor.

See ``docs/locality.md`` for the formulas and exactness conditions.
"""

from repro.locality.analytic import (
    LocalityPrediction,
    ReuseTerm,
    predict_locality,
)
from repro.cache.reuse import RefProfile, per_ref_profile
from repro.locality.histogram import PerRefReuseAnalyzer, oracle_profile
from repro.locality.polysum import PolySumError, chain_count, weighted_chain_count

__all__ = [
    "LocalityPrediction",
    "PerRefReuseAnalyzer",
    "PolySumError",
    "RefProfile",
    "ReuseTerm",
    "chain_count",
    "oracle_profile",
    "per_ref_profile",
    "predict_locality",
    "weighted_chain_count",
]
