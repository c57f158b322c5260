"""Exact chain counts (repro.locality.polysum) against exhaustive walks.

* a registry audit: every ``all`` entry's slot counts and carried-reuse
  counts equal a walk of the concrete iteration space;
* a hypothesis property over random 1-3 deep chains with triangular,
  over-empty and strided bounds in every weighting mode;
* the memo of compiled counts, keyed by chain shape.
"""

import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.reuse import reuse_profile
from repro.exec.layout import MemoryLayout
from repro.frontend import parse_program
from repro.ir.affine import Affine
from repro.ir.nodes import Loop
from repro.ir.poly import Poly
from repro.locality import predict_locality
from repro.locality.analytic import _collect_slots, _NestModel, carried_modes
from repro.locality.polysum import (
    PolySumError,
    chain_count,
    compile_chain_count,
    weighted_chain_count,
)
from repro.model import cache_stats, registered_caches
from repro.suite import get_set
from repro.transforms import tile_nest

MODES = ("full", "pairs", "once")


def walk(chain, env, modes=None):
    """Weighted count by visiting every iteration in execution order."""
    modes = modes or {}
    env = dict(env)

    def rec(i):
        if i == len(chain):
            return 1
        loop = chain[i]
        mode = modes.get(loop.var, "full")
        total = 0
        for j, value in enumerate(loop.iter_values(env)):
            env[loop.var] = value
            if not (mode == "pairs" and j == 0):
                total += rec(i + 1)
            if mode == "once":
                break
        env.pop(loop.var, None)
        return total

    return rec(0)


def nest(lines, n):
    body = "\n".join(lines)
    return parse_program(
        f"PROGRAM p\nPARAMETER N = {n}\nREAL A(N,N)\n{body}\nEND\n"
    )


#: DO I=1,N / DO J=I+2,N: the inner range is empty for I >= N-1.
OVER_EMPTY = [
    "DO I = 1, N",
    "  DO J = I+2, N",
    "    A(I,J) = A(I,J) + A(J,I)",
    "  ENDDO",
    "ENDDO",
]


class TestRegistryAudit:
    @pytest.mark.parametrize("instance", ["mini", "small"])
    def test_counts_equal_exhaustive_walk(self, instance):
        checked = mismatches = 0
        for entry in get_set("all").entries():
            program = entry.program(instance=instance)
            env = dict(program.param_env)
            layout = MemoryLayout.for_program(program, env)
            for slot in _collect_slots(program, layout, env):
                cases = [{}] + [
                    carried_modes(slot, ci) for ci in range(len(slot.chain))
                ]
                for modes in cases:
                    try:
                        got = weighted_chain_count(slot.chain, env, modes)
                    except PolySumError:
                        # Only strided chains with a symbolic trip decline.
                        assert any(
                            abs(l.step) > 1 and l.constant_trip() is None
                            for l in slot.chain
                        ), (entry.name, modes)
                        continue
                    checked += 1
                    if got != walk(slot.chain, env, modes):
                        mismatches += 1
        assert checked > 500
        assert mismatches == 0


def _bound(draw, outer, low):
    """A low-ish or high-ish affine bound over the enclosing vars and N;
    ``I+2`` against ``N`` leaves ranges that go empty at the edge."""
    kind = draw(st.sampled_from(["const", "param"] + ["outer"] * 2 * bool(outer)))
    if kind == "const":
        return Affine.constant(draw(st.integers(0, 3) if low else st.integers(3, 7)))
    shift = draw(st.integers(-1, 2) if low else st.integers(-2, 1))
    if kind == "outer":
        return Affine.var(draw(st.sampled_from(outer))) + shift
    return Affine.var("N") + shift - (3 if low else 0)


@st.composite
def chains(draw):
    """1-3 deep chains: unit steps with affine bounds, or steps +-2/3
    over a constant span; every level in a random mode."""
    chain = []
    modes = {}
    for var in ("I", "J", "K")[: draw(st.integers(1, 3))]:
        outer = [loop.var for loop in chain]
        step = draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3]))
        start = _bound(draw, outer, low=step > 0)
        if abs(step) == 1:
            end = _bound(draw, outer, low=step < 0)
        else:
            end = start + draw(st.integers(-3, 9)) * (1 if step > 0 else -1)
        chain.append(Loop(var, start, end, step, ()))
        modes[var] = draw(st.sampled_from(MODES))
    return tuple(chain), modes


class TestChainProperty:
    @given(chains(), st.integers(0, 6))
    @settings(deadline=None, max_examples=300)
    @example(
        case=(
            (Loop.make("I", 1, "N", ()), Loop.make("J", Affine.parse("I+2"), "N", ())),
            {"I": "full", "J": "pairs"},
        ),
        n=6,
    )
    @example(  # clipping a pairs level's first end makes it a full level
        case=(
            (Loop.make("I", 1, "N", ()), Loop.make("J", 1, Affine.parse("I-2"), ())),
            {"I": "pairs", "J": "once"},
        ),
        n=6,
    )
    def test_weighted_count_equals_walk(self, case, n):
        chain, modes = case
        env = {"N": n}
        try:
            got = weighted_chain_count(chain, env, modes)
        except PolySumError:
            return  # declined: the predictor enumerates instead
        assert got == walk(chain, env, modes), (chain, modes)

    @pytest.mark.parametrize("n", range(0, 8))
    @pytest.mark.parametrize(
        "modes",
        [{}, {"I": "pairs"}, {"J": "pairs"}, {"I": "pairs", "J": "once"},
         {"I": "once"}, {"J": "once"}],
    )
    def test_over_empty_inner_range(self, n, modes):
        chain = nest(OVER_EMPTY, 6).body[0].perfect_nest_loops()
        try:
            got = weighted_chain_count(chain, {"N": n}, modes)
        except PolySumError:
            # The clipped range I = 1..N-1 (N-2 under a once level) has
            # a parameter check that small N fails: a decline, never a
            # miscount.
            assert n < 3
            return
        assert got == walk(chain, {"N": n}, modes)

    def test_reversed_pairs_skip_first_executed_iteration(self):
        # DO I = N,1,-1 / DO J = 1,I: the first I is N, not 1.
        chain = (
            Loop.make("I", "N", 1, (), step=-1),
            Loop.make("J", 1, "I", ()),
        )
        for mode in MODES:
            modes = {"I": mode}
            assert weighted_chain_count(chain, {"N": 5}, modes) == walk(chain, {"N": 5}, modes)

    def test_strided_constant_trip_is_exact(self):
        # Tile loop II = 1,16,4 over element loop I = II, II+3.
        chain = (
            Loop.make("II", 1, 16, (), step=4),
            Loop.make("I", "II", Affine.parse("II+3"), ()),
            Loop.make("J", "I", 16, ()),
        )
        count = compile_chain_count(chain)
        assert count.checks == ()
        assert count.evaluate({}) == walk(chain, {}) == sum(17 - i for i in range(1, 17))

    def test_strided_symbolic_trip_declines(self):
        chain = (Loop.make("I", 1, "N", (), step=2),)
        with pytest.raises(PolySumError, match="symbolic trip"):
            compile_chain_count(chain)

    def test_parameter_check_declines_at_evaluation(self):
        # DO I = 1,N / DO J = 1,M: needs M >= 0, a condition on parameters.
        chain = (Loop.make("I", 1, "N", ()), Loop.make("J", 1, "M", ()))
        count = compile_chain_count(chain)
        assert sorted(str(c) for c in count.checks) == ["M", "N"]
        assert count.evaluate({"N": 3, "M": 0}) == 0
        with pytest.raises(PolySumError, match="M >= 0"):
            count.evaluate({"N": 3, "M": -2})

    def test_clip_point_with_symbolic_gap_becomes_a_check(self):
        # DO I = 1,M / DO J = I,N: I <= N+1 differs from M by a symbol.
        chain = (Loop.make("I", 1, "M", ()), Loop.make("J", "I", "N", ()))
        count = compile_chain_count(chain)
        assert count.checks
        assert count.evaluate({"M": 4, "N": 6}) == walk(chain, {"M": 4, "N": 6})
        with pytest.raises(PolySumError):
            count.evaluate({"M": 6, "N": 3})


class TestOverEmptyMass:
    def test_mass_equals_trace_access_count(self):
        program = nest(OVER_EMPTY, 6)
        prediction = predict_locality(program, line=8)
        trace = reuse_profile(program, line=8)
        assert trace.accesses == 30  # 10 iterations, 3 references each
        assert prediction.accesses == trace.accesses
        assert sum(t.count for t in prediction.terms) + prediction.cold == trace.accesses


class TestTiledChains:
    def test_tiled_matmul_counts_without_enumeration(self, monkeypatch):
        program = parse_program(textwrap.dedent(
            """
            PROGRAM t
            REAL A(32,32), B(32,32), C(32,32)
            DO J = 1, 32
              DO K = 1, 32
                DO I = 1, 32
                  C(I,J) = C(I,J) + A(I,K)*B(K,J)
                ENDDO
              ENDDO
            ENDDO
            END
            """
        ))
        tiled = tile_nest(program.body[0], {"J": 8, "K": 8}).loop
        program = program.with_body([tiled])

        def refuse(self, chain, modes=None):
            raise AssertionError("enumeration reached")

        monkeypatch.setattr(_NestModel, "_enumerate_count", refuse)
        prediction = predict_locality(program, line=32)
        assert prediction.accesses == reuse_profile(program, line=32).accesses


class TestChainCountMemo:
    SOURCE = [
        "DO I = 1, N",
        "  DO J = I, N",
        "    A(I,J) = 0.0",
        "  ENDDO",
        "ENDDO",
    ]

    def test_separate_parses_share_one_entry(self):
        cache = registered_caches()["locality.chain_count"]
        first = nest(self.SOURCE, 9).body[0].perfect_nest_loops()
        second = nest(self.SOURCE, 9).body[0].perfect_nest_loops()
        assert first[0] is not second[0]
        cache.clear()
        hits, misses = cache.hits, cache.misses
        assert chain_count(first, {"N": 9}) == 45
        assert chain_count(second, {"N": 9}) == 45
        assert (cache.hits - hits, cache.misses - misses) == (1, 1)
        assert len(cache) == 1

    def test_changed_bound_misses(self):
        cache = registered_caches()["locality.chain_count"]
        chain = nest(self.SOURCE, 9).body[0].perfect_nest_loops()
        changed = (chain[0], Loop(chain[1].var, chain[1].lb + 1, chain[1].ub, 1, ()))
        cache.clear()
        misses = cache.misses
        chain_count(chain, {"N": 9})
        assert chain_count(changed, {"N": 9}) == 36
        assert cache.misses - misses == 2

    def test_declines_are_cached(self):
        cache = registered_caches()["locality.chain_count"]
        chain = (Loop.make("I", 1, "N", (), step=2),)
        cache.clear()
        hits = cache.hits
        for _ in range(2):
            with pytest.raises(PolySumError):
                chain_count(chain, {"N": 5})
        assert cache.hits - hits == 1

    def test_registered_and_clear_keeps_results(self):
        assert "locality.chain_count" in registered_caches()
        assert any(row["name"] == "locality.chain_count" for row in cache_stats())
        chain = nest(self.SOURCE, 9).body[0].perfect_nest_loops()
        count = compile_chain_count(chain)
        assert count.poly == Poly.var("N") * Poly.var("N") / 2 + Poly.var("N") / 2
        registered_caches()["locality.chain_count"].clear()
        again = compile_chain_count(chain)
        assert again is not count
        assert again == count
        assert again.evaluate({"N": 9}) == count.evaluate({"N": 9}) == 45
