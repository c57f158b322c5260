"""Differential fuzzing of the memoization caches against fresh computation.

The cost model keeps three caches — the per-model ``nest_info`` identity
cache, the structural ``loop_cost`` cache, and the module-level shared
dependence cache — the dependence layer memoizes ``analyze_ref_pair``
results, and the locality predictor memoizes compiled chain counts by
chain shape. A warm cache must never change an answer: for generated nests,
results served by a model that has already seen the original tree (or a
structurally identical rebuild, or a key-colliding mutant) must match a
cold model computing from scratch.
"""

import copy
import random

import pytest

from repro.seeds import seed_sequence
from repro.dependence.tests import _PAIR_CACHE, analyze_ref_pair
from repro.ir import Affine, Loop, Ref
from repro.ir.nodes import Loop as LoopNode
from repro.locality import predict_locality
from repro.model import CostModel
from repro.model.loopcost import _DEPS_CACHE
from repro.model.memo import registered_caches
from repro.verify.gennest import generate_program
from repro.verify.runner import case_rng


def _top_nests(program):
    return [item for item in program.body if isinstance(item, LoopNode)]


def _orders(model, program):
    """memory_order of every top nest, plus loop-cost magnitudes."""
    out = []
    for nest in _top_nests(program):
        order = model.memory_order(nest)
        costs = {
            var: cost.magnitude()
            for var, cost in model.loop_costs(nest).items()
        }
        out.append((order, costs))
    return out


def _mutate_bound(program):
    """Widen the first top nest's bounds: structurally new cache keys."""
    nests = _top_nests(program)
    nest = nests[0]
    wider = Loop(nest.var, nest.lb, nest.ub + 1, nest.step, nest.body)
    body = list(program.body)
    body[program.body.index(nest)] = wider
    return program.with_body(body)


class TestCostModelCaches:
    @pytest.mark.parametrize("case", seed_sequence(25, "caches-random"))
    def test_warm_model_matches_cold_model(self, case):
        program = generate_program(case_rng(1, case), name=f"MC{case}")
        rebuilt = copy.deepcopy(program)  # new identities, same structure
        mutated = _mutate_bound(program)

        warm = CostModel()
        # Warm up on the original, then query every variant from the
        # same (now hot) model.
        _orders(warm, program)
        for variant in (program, rebuilt, mutated):
            assert _orders(warm, variant) == _orders(CostModel(), variant)

    @pytest.mark.parametrize("case", range(10))
    def test_shared_deps_cache_survives_rebuilds(self, case):
        # The module-level dependence cache is keyed structurally; a
        # rebuilt tree must hit it AND get info bound to its own loop
        # objects (consumers compare chain entries by identity).
        program = generate_program(case_rng(2, case), name=f"DC{case}")
        rebuilt = copy.deepcopy(program)
        model = CostModel()
        nest, nest2 = _top_nests(program)[0], _top_nests(rebuilt)[0]
        model.nest_info(nest)
        assert nest2 in _DEPS_CACHE or nest in _DEPS_CACHE
        info = model.nest_info(nest2)
        assert info.loops[0] is nest2

    def test_identity_cache_returns_same_info(self):
        program = generate_program(case_rng(3, 0), name="IC")
        model = CostModel()
        nest = _top_nests(program)[0]
        assert model.nest_info(nest) is model.nest_info(nest)

    @pytest.mark.parametrize("case", range(10))
    def test_mutated_tree_never_served_stale_results(self, case):
        # Cost a program, mutate it, and check the warm model agrees
        # with a cold model on the mutant — a stale hit would surface as
        # identical costs despite the wider loop.
        program = generate_program(case_rng(4, case), name=f"MU{case}")
        warm = CostModel()
        _orders(warm, program)
        mutated = _mutate_bound(program)
        assert _orders(warm, mutated) == _orders(CostModel(), mutated)


class TestChainCountCache:
    @pytest.mark.parametrize("case", seed_sequence(10, "chain-count-cache"))
    def test_warm_prediction_matches_cold(self, case):
        # Warm the chain-count cache on the original, then predict a
        # rebuild and a wider mutant warm and again from an empty cache.
        program = generate_program(case_rng(5, case), name=f"CC{case}")
        cache = registered_caches()["locality.chain_count"]

        def predict(variant):
            p = predict_locality(variant, line=32)
            return p.accesses, p.cold, sorted(p.predicted_histogram().items())

        predict(program)
        for variant in (program, copy.deepcopy(program), _mutate_bound(program)):
            warm = predict(variant)
            cache.clear()
            assert predict(variant) == warm


class TestPairCache:
    def _chains(self, rng):
        depth = rng.randint(1, 2)
        loops = []
        for var in ("I", "J")[:depth]:
            lo = rng.randint(1, 2)
            loops.append(Loop.make(var, lo, lo + rng.randint(2, 6), []))
        return loops

    def _ref(self, rng, vars_):
        terms = Affine.constant(rng.randint(0, 3))
        for var in vars_:
            if rng.random() < 0.7:
                terms = terms + Affine.var(var, rng.choice((1, 1, -1, 2)))
        return Ref("A", (terms,))

    @pytest.mark.parametrize("seed", seed_sequence(20, "caches-streams"))
    def test_cached_pair_equals_fresh(self, seed):
        rng = random.Random(seed)
        common = self._chains(rng)
        vars_ = [l.var for l in common]
        ref_a, ref_b = self._ref(rng, vars_), self._ref(rng, vars_)

        first = analyze_ref_pair(ref_a, ref_b, common)
        warm = analyze_ref_pair(ref_a, ref_b, common)  # served from cache
        _PAIR_CACHE.clear()
        cold = analyze_ref_pair(ref_a, ref_b, common)
        assert first == warm == cold

    def test_renamed_loops_do_not_collide(self):
        # Same ref pair under different loop ranges must not share an
        # entry: the chain is part of the key.
        ref = Ref("A", (Affine.var("I"),))
        short = [Loop.make("I", 1, 4, [])]
        long = [Loop.make("I", 1, 40, [])]
        _PAIR_CACHE.clear()
        a = analyze_ref_pair(ref, Ref("A", (Affine.var("I") + 10,)), short)
        b = analyze_ref_pair(ref, Ref("A", (Affine.var("I") + 10,)), long)
        assert a == []  # distance 10 exceeds the short trip count
        assert b != []
