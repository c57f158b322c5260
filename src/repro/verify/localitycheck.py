"""Differential oracle: analytic locality prediction vs the exact trace.

Fourth stage of the verify hierarchy (after dependence coverage,
execution equivalence, and cache-engine equivalence): for every fuzzed
nest, the trace-derived reuse-distance histogram is compared against
:func:`repro.locality.analytic.predict_locality` at element granularity
(``line=8``):

* the block-fed analyzer must agree bit-for-bit with the
  interpreter-fed oracle, on the aggregate histogram and on every
  per-``(sid, slot)`` histogram;
* predicted access counts must equal traced counts, and the predicted
  histogram's mass must equal the access count (both hold by
  construction — a violation is a bug, not model error);
* when the predictor claims the **exact** path, the predicted histogram
  must equal the traced histogram exactly;
* on the model path, the traced hit rate at each probed capacity must
  lie inside a predicted envelope: between the predicted rate at half
  the capacity and at twice the capacity, widened by an additive bound.
  The factor-two slack absorbs boundary quantization (the model's
  footprint distances are full-window estimates; real reuses land
  spread just below them), while still catching structural blunders —
  a predictor that calls everything a hit, or everything cold, fails
  at both ends of the envelope.
"""

from __future__ import annotations

from repro.cache.reuse import per_ref_profile
from repro.ir.nodes import Program
from repro.locality.analytic import LocalityPrediction, predict_locality
from repro.locality.histogram import oracle_profile
from repro.verify.oracles import Mismatch

__all__ = ["check_locality", "MODEL_RATE_BOUND"]

#: Element-granularity line size used by the oracle.
ORACLE_LINE = 8

#: FA-LRU capacities (in lines) probed on the model path.
MODEL_CAPACITIES = (16, 256)

#: Additive widening of the model-path hit-rate envelope.
MODEL_RATE_BOUND = 0.25


def _first_histogram_diff(a, b) -> str:
    keys = sorted(set(a) | set(b), key=lambda k: (k != -1, k))
    for key in keys:
        if a.get(key, 0) != b.get(key, 0):
            label = "cold" if key == -1 else f"d={key}"
            return f"{label}: predicted {a.get(key, 0)} != traced {b.get(key, 0)}"
    return "histograms identical"


def check_locality(
    program: Program,
    line: int = ORACLE_LINE,
    prediction: LocalityPrediction | None = None,
) -> Mismatch | None:
    """Run the full locality oracle on one program; None when clean.

    ``prediction`` is ``predict_locality(program, line=line)`` when the
    caller has made it already. A mismatch's ``where`` is one of
    ``engines``, ``accesses``, ``mass``, ``exact`` and ``model``; its
    context names the predictor's path.
    """
    block = per_ref_profile(program, line=line)
    trace = block.profile

    # Engine agreement: the block analyzer must reproduce the interpreter
    # oracle exactly, globally and slot by slot.
    oracle = oracle_profile(program, line=line)
    pairs = [("aggregate", oracle.profile, trace)] + [
        (f"sid {sid} slot {slot}", ref, block.profiles[sid, slot])
        for (sid, slot), ref in oracle.profiles.items()
    ]
    for where, want, got in pairs:
        if got.histogram != want.histogram:
            return Mismatch(
                "engines",
                f"block engine diverges from the oracle ({where}): "
                + _first_histogram_diff(got.histogram, want.histogram),
                "path=-",
            )

    if prediction is None:
        prediction = predict_locality(program, line=line)
    context = f"path={'exact' if prediction.exact else 'model'}"
    if prediction.accesses != trace.accesses:
        return Mismatch(
            "accesses",
            f"predicted {prediction.accesses} accesses, traced {trace.accesses}",
            context,
        )
    predicted = prediction.predicted_histogram()
    mass = sum(predicted.values())
    if mass != prediction.accesses:
        return Mismatch(
            "mass",
            f"histogram mass {mass} != access count {prediction.accesses}",
            context,
        )

    if prediction.exact:
        if predicted != trace.histogram:
            return Mismatch(
                "exact", _first_histogram_diff(predicted, trace.histogram), context
            )
        return None

    if trace.accesses == 0:
        return None
    for capacity in MODEL_CAPACITIES:
        lo = prediction.hit_rate_for_capacity(capacity // 2, include_cold=True)
        hi = prediction.hit_rate_for_capacity(capacity * 2, include_cold=True)
        want = trace.hit_rate_for_capacity(capacity, include_cold=True)
        if not (lo - MODEL_RATE_BOUND <= want <= hi + MODEL_RATE_BOUND):
            return Mismatch(
                "model",
                f"hit rate at {capacity} lines: traced {want:.3f} outside "
                f"predicted envelope [{lo:.3f}, {hi:.3f}] "
                f"(+-{MODEL_RATE_BOUND})",
                context,
            )
    return None
