"""The model-driven autotuner: memo layer, oracles, space, and search.

The property tests pin the subsystem's public promises: every
enumerated order passes the legality checker, every tiling fits the
capacity model and divides the trip counts, and the chosen config is
miss-monotone, compound-dominant, and verified. The memo/oracle tests
cover the shared cache layer both subsystems score through.
"""

import pytest

from repro.autotune import (
    CHECKED,
    ORIGINAL,
    autotune,
    fusion_variants,
    legal_orders,
    nest_options,
    nest_slots,
    tile_ladder,
)
from repro.frontend import parse_program
from repro.ir.nodes import Loop
from repro.ir.pretty import pretty_program
from repro.model import (
    AnalyticOracle,
    CostModel,
    MemoCache,
    OracleCost,
    SimulationOracle,
    cache_stats,
    canonical_key,
    registered_caches,
)
from repro.obs import Obs, use_obs
from repro.suite import get_entry, kernels
from repro.transforms.legality import constraining_vectors, order_is_legal

_EPS = 1e-9

#: Constant-bound nest (no PARAMETER): the one shape the IR can tile.
#: Memory-ordered matmul, so tiling (of the reuse-carrying J/K band) is
#: the axis the search has left to exploit.
TILABLE = """
PROGRAM tiled
REAL A(64,64), B(64,64), C(64,64)
DO J = 1, 64
  DO K = 1, 64
    DO I = 1, 64
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""


@pytest.fixture
def tilable():
    return parse_program(TILABLE)


# ----------------------------------------------------------------------
# Satellite 1: the shared memo layer
# ----------------------------------------------------------------------
class TestMemoCache:
    def test_lru_eviction_at_cap(self):
        cache = MemoCache("t.lru", cap=2, register=False)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_hit_miss_counters(self):
        cache = MemoCache("t.count", cap=4, register=False)
        assert cache.get("x") is None
        cache.put("x", 42)
        assert cache.get("x") == 42
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        # peek is uncounted
        assert cache.peek("x") == 42
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clear_keeps_counters(self):
        cache = MemoCache("t.clear", cap=4, register=False)
        cache.put("x", 1)
        cache.get("x")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_positive_cap_required(self):
        with pytest.raises(ValueError):
            MemoCache("t.bad", cap=0, register=False)

    def test_registry_and_stats(self):
        # The pipeline's shared caches registered themselves at import.
        names = set(registered_caches())
        assert "oracle.analytic.cache" in names
        rows = {row["name"]: row for row in cache_stats()}
        assert rows["oracle.analytic.cache"]["cap"] > 0

    def test_obs_counters_emitted(self):
        cache = MemoCache("t.obs", cap=2, register=False)
        obs = Obs()
        with use_obs(obs):
            cache.get("missing")
            cache.put("k", 1)
            cache.get("k")
            cache.put("k2", 2)
            cache.put("k3", 3)  # evicts
        counters = {
            name: counter.value
            for name, counter in obs.metrics.counters.items()
        }
        assert counters["t.obs.misses"] == 1
        assert counters["t.obs.hits"] == 1
        assert counters["t.obs.evictions"] == 1


# ----------------------------------------------------------------------
# The cost oracles both lint and autotune score through
# ----------------------------------------------------------------------
class TestOracles:
    def test_analytic_matches_predictor(self):
        from repro.locality import predict_locality

        program = kernels.matmul(16, "KIJ")
        oracle = AnalyticOracle(line=128, capacity=64)
        cost = oracle.cost(program)
        prediction = predict_locality(program, line=128)
        assert cost.misses == prediction.misses_for_capacity(64)
        assert cost.accesses == prediction.accesses
        assert cost.miss_ratio == pytest.approx(
            prediction.miss_ratio_for_capacity(64)
        )

    def test_analytic_memoizes_on_canonical_text(self):
        from repro.model.oracle import _PREDICTION_CACHE

        program = kernels.matmul(12, "IJK")
        oracle = AnalyticOracle(line=128, capacity=64)
        oracle.cost(program)
        hits = _PREDICTION_CACHE.hits
        oracle.cost(program)  # same canonical text -> cache hit
        assert _PREDICTION_CACHE.hits == hits + 1

    def test_simulation_matches_reuse_profile(self):
        from repro.cache.reuse import reuse_profile

        program = kernels.matmul(8, "IJK")
        oracle = SimulationOracle(line=128, capacity=64)
        cost = oracle.cost(program)
        profile = reuse_profile(program, line=128)
        assert cost.accesses == profile.accesses
        assert cost.misses == profile.accesses - profile.hits_for_capacity(64)

    def test_oracle_cost_comparisons(self):
        a = OracleCost(misses=10.0, accesses=100)
        b = OracleCost(misses=20.0, accesses=100)
        assert a.miss_ratio == pytest.approx(0.1)
        assert a.better_than(b)
        assert not b.better_than(a)
        assert not a.better_than(a)

    def test_canonical_key_is_pretty_text(self):
        program = kernels.matmul(8, "IJK")
        assert canonical_key(program) == pretty_program(program)

    def test_oracles_tell_element_sizes_apart(self):
        # The pretty text does not print elem_size: both oracles once
        # answered a 4-byte program with its 8-byte twin's cached cost.
        from dataclasses import replace

        from repro.cache.reuse import reuse_profile
        from repro.locality import predict_locality

        wide = parse_program(
            "PROGRAM t\nPARAMETER N = 40\nREAL A(N,N), B(N,N)\n"
            "DO I = 1, N\n  DO J = 1, N\n    A(I,J) = A(I,J) + B(J,I)\n"
            "  ENDDO\nENDDO\nEND"
        )
        narrow = replace(
            wide, arrays=tuple(replace(d, elem_size=4) for d in wide.arrays)
        )
        assert canonical_key(wide) == canonical_key(narrow)
        expected = []
        for program in (wide, narrow):
            profile = reuse_profile(program, line=32)
            expected.append(
                (
                    profile.accesses - profile.hits_for_capacity(16),
                    predict_locality(program, line=32).misses_for_capacity(16),
                )
            )
        assert expected == [(2000, 2001), (1800, 1801)]
        answers = [
            (
                SimulationOracle(line=32, capacity=16).cost(program).misses,
                AnalyticOracle(line=32, capacity=16).cost(program).misses,
            )
            for program in (wide, narrow)
        ]
        assert answers == expected

    def test_analytic_oracle_tells_statement_ids_apart(self):
        # The pretty text does not print sids either: the oracle once
        # answered a renumbered program with its twin's prediction,
        # whose every ReuseTerm.sid belonged to the twin.
        from dataclasses import replace

        first = parse_program(
            "PROGRAM t\nPARAMETER N = 16\nREAL A(N), B(N)\n"
            "DO I = 1, N\n  A(I) = B(I)\n  B(I) = A(I) + 1.0\nENDDO\nEND"
        )
        (loop,) = first.body
        renumbered = [stmt.with_sid(sid) for stmt, sid in zip(loop.body, (7, 9))]
        second = replace(first, body=(loop.with_body(renumbered),))
        assert canonical_key(first) == canonical_key(second)
        oracle = AnalyticOracle(line=32, capacity=16)
        sids = [
            {term.sid for term in oracle.prediction(program).terms}
            for program in (first, second)
        ]
        assert sids == [{0, 1}, {7, 9}]


# ----------------------------------------------------------------------
# Search-space enumeration properties
# ----------------------------------------------------------------------
class TestSpace:
    @pytest.mark.parametrize("name", ["jacobi", "cholesky", "transpose", "adi"])
    def test_legal_orders_all_pass_legality(self, name):
        program = get_entry(name).program(16)
        model = CostModel(cls=16)
        for slot in nest_slots(program):
            nest = program.body[slot]
            chain = nest.perfect_nest_loops()
            original = tuple(loop.var for loop in chain)
            index_of = {var: i for i, var in enumerate(original)}
            vectors = constraining_vectors(nest)
            for order in legal_orders(nest, model):
                assert sorted(order) == sorted(original)
                assert order_is_legal(vectors, [index_of[v] for v in order])

    def test_legal_orders_reads_the_legality_module_per_call(self, monkeypatch):
        # The mutation smoke test patches the module attribute; a name
        # bound at import would keep the real check.
        import repro.transforms.legality as legality

        asked = []

        def refuse(vectors, order):
            asked.append(tuple(order))
            return False

        monkeypatch.setattr(legality, "order_is_legal", refuse)
        nest = kernels.matmul(8, "IJK").body[0]
        assert legal_orders(nest, CostModel(cls=16)) == [("I", "J", "K")]
        assert len(asked) == 5  # every order but the original

    def test_tile_ladder_divides_trips_and_fits(self, tilable):
        model = CostModel(cls=16)
        nest = tilable.body[0]
        ladder = tile_ladder(nest, model, cache_bytes=8192, line_bytes=128)
        assert ladder, "constant-trip 64^3 matmul must admit a tiling"
        for tiles, tiled in ladder:
            assert isinstance(tiled, Loop)
            assert tiles, "every ladder entry carries its tile sizes"
            for var, size in tiles:
                assert 64 % size == 0 and size < 64
            # The tiled nest is deeper than the original chain.
            assert tiled.depth > nest.depth

    def test_tile_ladder_empty_for_symbolic_bounds(self):
        # Suite kernels carry PARAMETER-N bounds the IR cannot strip-mine.
        program = get_entry("jacobi").program(16)
        model = CostModel(cls=16)
        for slot in nest_slots(program):
            assert (
                tile_ladder(
                    program.body[slot], model, cache_bytes=8192, line_bytes=128
                )
                == []
            )

    def test_nest_options_include_identity_with_original_slug(self, tilable):
        model = CostModel(cls=16)
        nest = tilable.body[0]
        options = nest_options(nest, 0, model, 8192, 128)
        assert options[0][0] is nest
        assert options[0][1].legality == ORIGINAL
        assert all(
            plan.legality in (ORIGINAL, CHECKED) for _, plan in options
        )
        # Matmul admits reorderings plus tilings.
        assert len(options) > 1
        assert any(plan.tiles for _, plan in options)

    def test_fusion_variants_start_with_identity(self):
        program = get_entry("jacobi").program(16)
        variants = fusion_variants(program, CostModel(cls=16))
        assert variants[0][0] == "none"
        texts = [pretty_program(v) for _, v, _ in variants]
        assert len(texts) == len(set(texts))  # deduped


# ----------------------------------------------------------------------
# Tentpole: the search driver's public promises
# ----------------------------------------------------------------------
class TestAutotune:
    def test_matmul_kij_finds_memory_order(self):
        # n=48 so the arrays (18 KB each) exceed the 8 KB search cache
        # and loop order actually matters to the oracle.
        program = kernels.matmul(48, "KIJ")
        result = autotune(program, line=128, capacity=64, budget=32)
        assert result.verified
        assert result.best.cost.misses < result.original.cost.misses
        assert result.improvement_pp > 0

    @pytest.mark.parametrize("name, n", [("jacobi", 24), ("cholesky", 16)])
    def test_monotone_and_compound_dominant(self, name, n):
        program = get_entry(name).program(n)
        result = autotune(program, line=128, capacity=64, budget=32)
        assert result.best.cost.misses <= result.original.cost.misses + _EPS
        compound_rejected = any(
            describe == "compound" for describe, _ in result.rejected
        )
        if not compound_rejected:
            assert (
                result.best.cost.misses <= result.compound.cost.misses + _EPS
            )

    def test_plans_carry_approved_legality_slugs(self):
        program = get_entry("adi").program(16)
        result = autotune(program, line=128, capacity=64, budget=32)
        for candidate in result.ranked:
            for plan in candidate.plans:
                assert plan.legality in (ORIGINAL, CHECKED)

    def test_budget_caps_distinct_evaluations(self):
        program = get_entry("erlebacher_like").program(8)
        result = autotune(program, line=128, capacity=64, budget=4)
        assert result.evaluated <= 4
        assert result.budget_exhausted
        assert result.best.cost is not None  # still returns a scored config

    def test_tiling_chosen_on_constant_bound_nest(self, tilable):
        # 64x64 REAL arrays (32 KB each) against a 4 KB cache: the tiled
        # configs enter the pool and beat the untiled orders.
        result = autotune(tilable, line=128, capacity=32, budget=64)
        tiled = [c for c in result.ranked if any(p.tiles for p in c.plans)]
        assert tiled, "search must enumerate tilings of constant-trip nests"
        assert result.best.cost.misses <= result.original.cost.misses + _EPS

    def test_search_is_deterministic(self):
        program = kernels.matmul(16, "KIJ")
        first = autotune(program, line=128, capacity=64, budget=32)
        second = autotune(program, line=128, capacity=64, budget=32)
        assert first.best.text == second.best.text
        assert [c.text for c in first.ranked] == [c.text for c in second.ranked]

    def test_sim_rerank_orders_by_simulated_misses(self):
        program = kernels.matmul(12, "KIJ")
        result = autotune(
            program,
            line=128,
            capacity=64,
            budget=16,
            topk=3,
            compare_sim=True,
            jobs=1,
        )
        assert result.sim_ranked
        sims = [c.sim.misses for c in result.sim_ranked]
        assert sims == sorted(sims)
        assert all(c.sim.accesses > 0 for c in result.sim_ranked)

    def test_unverified_mode_returns_ranked_head(self):
        program = kernels.matmul(12, "KIJ")
        result = autotune(program, line=128, capacity=64, budget=16, verify=False)
        assert not result.verified
        assert result.best.text == result.ranked[0].text


class TestCappedVerification:
    def test_constant_bound_pick_verified_at_capped_trips(self, tilable, monkeypatch):
        import repro.verify.oracles as oracles
        from repro.ir.visit import iter_loops
        from repro.lint.verifyfix import VERIFY_PARAM_CAP

        trips = []
        run_state = oracles.run_state

        def spy(program):
            env = program.param_env
            trips.extend(
                loop.trip_count(env)
                for loop in iter_loops(program)
                if not (loop.lb.names | loop.ub.names) - set(env)
            )
            return run_state(program)

        monkeypatch.setattr(oracles, "run_state", spy)
        result = autotune(tilable, line=128, capacity=32, budget=16)
        assert result.verified
        assert trips and max(trips) <= VERIFY_PARAM_CAP

    @pytest.mark.parametrize("case", ["tilable", "cholesky_kij", "erlebacher"])
    def test_search_candidates_carry_replayable_recipes(self, case, tilable):
        program = {
            "tilable": tilable,
            "cholesky_kij": kernels.cholesky(12, "KIJ"),  # a distribute variant
            "erlebacher": get_entry("erlebacher_like").program(instance="mini"),
        }[case]
        result = autotune(program, line=128, capacity=32, budget=64, verify=False)
        rewritten = [c for c in result.ranked if c.source != "original"]
        assert rewritten
        for candidate in rewritten:
            # A compound output rebuilt by a search path took its recipe.
            assert candidate.recipe is not None or candidate.source == "compound"
            if candidate.recipe is not None:
                replayed = candidate.recipe.replay(program)
                assert pretty_program(replayed) == candidate.text

    def test_distribution_and_fusion_variants_verify_capped(self):
        from repro.lint.verifyfix import verify_fixit
        from repro.transforms.recipe import Distribute, Fuse

        seen = set()
        for program in (
            kernels.cholesky(12, "KIJ"),
            get_entry("erlebacher_like").program(instance="mini"),
        ):
            for label, variant, recipe in fusion_variants(program, CostModel(cls=16)):
                if label == "none":
                    continue
                seen.update(type(step) for step in recipe.steps)
                assert verify_fixit(program, variant, recipe) == (True, "oracle")
        assert seen == {Distribute, Fuse}

    def test_illegal_tiling_recipe_fails_verification(self):
        # A (1,-1) dependence: the band is not fully permutable, so tiling
        # both loops reorders it. Replay skips the legality check.
        from repro.lint.verifyfix import verify_fixit
        from repro.transforms.recipe import Recipe, Tile

        program = parse_program(
            """
PROGRAM wave
REAL A(66,66)
DO I = 2, 65
  DO J = 1, 64
    A(I,J) = A(I-1,J+1) + 1
  ENDDO
ENDDO
END
"""
        )
        recipe = Recipe((Tile((0,), (("I", 16), ("J", 16))),))
        ok, slug = verify_fixit(program, recipe.replay(program), recipe)
        assert not ok, slug
