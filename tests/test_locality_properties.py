"""Property tests for repro.locality (ISSUE 5 satellite).

Three paper-grounded invariants, each with a quick tier-1 loop and a
deeper ``-m slow`` loop:

* **mass** — the predicted histogram's total mass (reuse terms plus cold
  misses) equals the access count, for the predictor and for every
  trace-driven engine;
* **permutation covariance** — on a perfect nest the predictor ranks
  loop orders the same way the exact simulator does (the paper's cost
  model only *ranks*; the predictor must at least preserve that order);
* **monotonicity** — predicted miss ratio is non-increasing in cache
  size (inclusion property of LRU stack distances).
"""

import itertools
import random

import pytest

from repro.cache.reuse import reuse_profile
from repro.locality import predict_locality
from repro.seeds import seed_sequence
from repro.suite import get_entry, matmul
from repro.transforms import apply_order
from repro.verify.gennest import generate_program

QUICK_SEEDS = seed_sequence(5, "locality-props")
DEEP_SEEDS = seed_sequence(60, "locality-props-deep")


def check_mass(program):
    prediction = predict_locality(program, line=8)
    trace = reuse_profile(program, line=8)
    assert prediction.accesses == trace.accesses
    assert sum(t.count for t in prediction.terms) + prediction.cold == (
        prediction.accesses
    )
    assert sum(trace.histogram.values()) == trace.accesses


def check_monotone(program):
    prediction = predict_locality(program, line=8)
    previous = 1.0 + 1e-12
    for capacity in (1, 2, 4, 16, 64, 256, 1024, 1 << 20):
        ratio = prediction.miss_ratio_for_capacity(capacity)
        assert 0.0 <= ratio <= previous, (capacity, ratio, previous)
        previous = ratio + 1e-12


class TestHistogramMass:
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_mass_equals_access_count_quick(self, seed):
        check_mass(generate_program(random.Random(seed), name=f"M{seed}"))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", DEEP_SEEDS)
    def test_mass_equals_access_count(self, seed):
        check_mass(generate_program(random.Random(seed), name=f"MD{seed}"))


class TestPermutationCovariance:
    @pytest.fixture(scope="class")
    def rates(self, line=64, capacity=128):
        """(simulated, predicted) warm FA hit rate per loop order."""
        out = {}
        for order in itertools.permutations("IJK"):
            program = matmul(20, "IJK")
            nest = program.top_loops[0]
            chain = nest.perfect_nest_loops()
            permuted = apply_order(chain, order, set())
            candidate = program.with_body((permuted,))
            sim = reuse_profile(candidate, line=line).hit_rate_for_capacity(
                capacity
            )
            pred = predict_locality(candidate, line=line).hit_rate_for_capacity(
                capacity
            )
            out[order] = (sim, pred)
        return out

    def test_predictor_ranks_orders_like_simulator(self, rates):
        by_sim = sorted(rates, key=lambda o: rates[o][0])
        by_pred = sorted(rates, key=lambda o: rates[o][1])
        # Require agreement wherever the simulator sees a clear gap
        # (>2pp); ties may legitimately reorder.
        sim_rank = {o: i for i, o in enumerate(by_sim)}
        for a, b in itertools.combinations(by_pred, 2):
            if abs(rates[a][0] - rates[b][0]) > 0.02:
                assert (sim_rank[a] < sim_rank[b]) == (
                    by_pred.index(a) < by_pred.index(b)
                ), (a, b, rates[a], rates[b])

    def test_best_and_worst_order_agree_with_paper(self, rates):
        # Column-major matmul: JKI (unit stride innermost) beats IJK.
        assert rates[("J", "K", "I")][1] >= rates[("I", "J", "K")][1]


class TestMissRatioMonotone:
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_monotone_quick(self, seed):
        check_monotone(generate_program(random.Random(seed), name=f"Q{seed}"))

    @pytest.mark.parametrize(
        "name,n", [("jacobi", 33), ("cholesky", 21), ("adi", 25)]
    )
    def test_monotone_on_suite(self, name, n):
        check_monotone(get_entry(name).program(n))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", DEEP_SEEDS)
    def test_monotone_deep(self, seed):
        check_monotone(generate_program(random.Random(seed), name=f"D{seed}"))
