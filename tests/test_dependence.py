"""Tests for dependence analysis: unit cases, paper examples, and
brute-force soundness checks (including a hypothesis property)."""

import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.dependence import tests as dep_tests
from repro.dependence import (
    ANTI,
    FLOW,
    INPUT,
    DepVector,
    analyze_ref_pair,
    region_dependences,
)
from repro.frontend import parse_program
from repro.ir import Affine, Loop, Ref
from repro.ir.visit import iter_loops
from repro.model.loopcost import CostModel
from repro.model.memo import registered_caches
from repro.obs import Obs, use_obs
from repro.suite import get_set, matmul
from repro.transforms.compound import compound
from repro.verify.depforce import analysis_covers, brute_force_dependences
from repro.verify.gennest import generate_program


def loops(*specs):
    """Helper: loops('I', 1, 'N') -> Loop chain, outermost first."""
    return [Loop.make(var, lb, ub, []) for var, lb, ub in specs]


class TestAnalyzeRefPair:
    def test_strong_siv_distance_one(self):
        common = loops(("I", 1, 100))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I-1"), common)
        # writing A(I), reading A(I-1): sink instance - source instance = +1
        # for the pair (A(I), A(I-1)): I' - 1 = I  =>  delta = 1
        assert vecs == [DepVector.of(1)]

    def test_strong_siv_reverse(self):
        common = loops(("I", 1, 100))
        vecs = analyze_ref_pair(Ref.make("A", "I-1"), Ref.make("A", "I"), common)
        assert vecs == [DepVector.of(-1)]

    def test_identity_pair(self):
        common = loops(("I", 1, 100))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I"), common)
        assert vecs == [DepVector.of(0)]

    def test_distance_exceeds_trip_count(self):
        common = loops(("I", 1, 3))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I-10"), common)
        assert vecs == []

    def test_ziv_independent(self):
        common = loops(("I", 1, 100))
        vecs = analyze_ref_pair(Ref.make("A", 1), Ref.make("A", 2), common)
        assert vecs == []

    def test_ziv_dependent(self):
        common = loops(("I", 1, 100))
        vecs = analyze_ref_pair(Ref.make("A", 5), Ref.make("A", 5), common)
        assert len(vecs) == 1
        assert vecs[0].components == ("*",)

    def test_gcd_independent(self):
        common = loops(("I", 1, 100))
        a = Ref("A", (2 * Affine.var("I"),))
        b = Ref("A", (2 * Affine.var("I") + 1,))
        assert analyze_ref_pair(a, b, common) == []

    def test_loop_invariant_dimension_stays_star(self):
        # B(K,J) analyzed in a J,K,I nest: I never appears.
        common = loops(("J", 1, 10), ("K", 1, 10), ("I", 1, 10))
        vecs = analyze_ref_pair(Ref.make("B", "K", "J"), Ref.make("B", "K", "J"), common)
        assert vecs == [DepVector.of(0, 0, "*")]

    def test_banerjee_prunes_out_of_range(self):
        # A(I) vs A(I+50) on a 10-trip loop: distance 50 impossible.
        common = loops(("I", 1, 10))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I+50"), common)
        assert vecs == []

    def test_coupled_subscripts_mivcase(self):
        # A(I+J) self-pair in 2-deep nest: many solutions, directions only.
        common = loops(("I", 1, 10), ("J", 1, 10))
        vecs = analyze_ref_pair(Ref.make("A", "I+J"), Ref.make("A", "I+J"), common)
        dirs = {v.components for v in vecs}
        assert (0, 0) in dirs
        assert ("<", ">") in dirs and (">", "<") in dirs
        # (<, <) increases I+J on both: infeasible
        assert ("<", "<") not in dirs

    def test_symbolic_bound_conservative(self):
        common = [Loop.make("I", 1, "N", [])]
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I-2"), common)
        assert vecs == [DepVector.of(2)]

    def test_different_arrays_independent(self):
        common = loops(("I", 1, 10))
        assert analyze_ref_pair(Ref.make("A", "I"), Ref.make("B", "I"), common) == []

    def test_scalar_pair_all_star(self):
        common = loops(("I", 1, 10), ("J", 1, 10))
        vecs = analyze_ref_pair(Ref.make("S"), Ref.make("S"), common)
        assert vecs == [DepVector.of("*", "*")]

    def test_empty_loop_no_dependence(self):
        common = loops(("I", 5, 1))  # zero trip
        assert analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I"), common) == []

    def test_triangular_nest(self):
        # DO K / DO I=K+1,N: A(I,K) self output dep only at distance 0.
        outer = Loop.make("K", 1, "N", [])
        inner = Loop.make("I", Affine.var("K") + 1, "N", [])
        vecs = analyze_ref_pair(
            Ref.make("A", "I", "K"), Ref.make("A", "I", "K"), [outer, inner]
        )
        assert vecs == [DepVector.of(0, 0)]


def deps_of(source: str, include_inputs=False):
    prog = parse_program(source)
    return prog, region_dependences(prog, include_inputs=include_inputs)


class TestRegionDependences:
    def test_flow_anti_output_kinds(self):
        prog, deps = deps_of(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N)
            DO I = 2, N
              A(I) = A(I-1) + A(I+1)
            ENDDO
            END
            """
        )
        kinds = {(d.kind, d.vector.components) for d in deps}
        assert (FLOW, (1,)) in kinds  # A(I) -> A(I-1) next iteration
        assert (ANTI, (1,)) in kinds  # A(I+1) read, written next iteration

    def test_loop_independent_within_statement(self):
        prog, deps = deps_of(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N)
            DO I = 1, N
              A(I) = A(I) + 1.0
            ENDDO
            END
            """
        )
        li = [d for d in deps if d.is_loop_independent]
        assert len(li) == 1
        assert li[0].kind == ANTI  # read happens before write in an instance
        assert not li[0].source.is_write and li[0].sink.is_write

    def test_across_statements_lexical_orientation(self):
        prog, deps = deps_of(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N), B(N), C(N)
            DO I = 1, N
              A(I) = B(I)
              C(I) = A(I)
            ENDDO
            END
            """
        )
        flows = [d for d in deps if d.kind == FLOW]
        assert len(flows) == 1
        assert flows[0].source.sid == 0 and flows[0].sink.sid == 1
        assert flows[0].is_loop_independent

    def test_input_dependences_optional(self):
        src = """
        PROGRAM p
        PARAMETER N = 10
        REAL A(N), B(N), C(N)
        DO I = 1, N
          B(I) = A(I)
          C(I) = A(I)
        ENDDO
        END
        """
        _, without = deps_of(src)
        _, with_inputs = deps_of(src, include_inputs=True)
        assert not any(d.kind == INPUT for d in without)
        inputs = [d for d in with_inputs if d.kind == INPUT]
        assert any(d.source.sid == 0 and d.sink.sid == 1 for d in inputs)

    def test_disjoint_nests_no_common_loops(self):
        prog, deps = deps_of(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N)
            DO I = 1, N
              A(I) = 1.0
            ENDDO
            DO J = 1, N
              A(J) = A(J) + 1.0
            ENDDO
            END
            """
        )
        cross = [d for d in deps if d.source.sid != d.sink.sid]
        assert cross
        for d in cross:
            assert d.loop_vars == ()
            assert len(d.vector) == 0
            assert d.source.sid == 0  # first nest is the source

    def test_scalar_reduction_blocks(self):
        prog, deps = deps_of(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N)
            S = 0.0
            DO I = 1, N
              S = S + A(I)
            ENDDO
            END
            """
        )
        self_deps = [d for d in deps if d.source.sid == 1 and d.sink.sid == 1]
        # The scalar recurrence is carried by the loop (the ambiguous '*'
        # vector splits into oriented carried cases).
        assert any(d.vector.components == ("<",) for d in self_deps)


CASES = [
    # (name, source, env)
    (
        "stencil",
        """
        PROGRAM p
        PARAMETER N = 6
        REAL A(N)
        DO I = 2, N - 1
          A(I) = A(I-1) + A(I+1)
        ENDDO
        END
        """,
        {"N": 6},
    ),
    (
        "matmul",
        """
        PROGRAM p
        PARAMETER N = 4
        REAL A(N,N), B(N,N), C(N,N)
        DO J = 1, N
          DO K = 1, N
            DO I = 1, N
              C(I,J) = C(I,J) + A(I,K)*B(K,J)
            ENDDO
          ENDDO
        ENDDO
        END
        """,
        {"N": 4},
    ),
    (
        "cholesky",
        """
        PROGRAM p
        PARAMETER N = 5
        REAL A(N,N)
        DO K = 1, N
          A(K,K) = SQRT(A(K,K))
          DO I = K+1, N
            A(I,K) = A(I,K) / A(K,K)
            DO J = K+1, I
              A(I,J) = A(I,J) - A(I,K)*A(J,K)
            ENDDO
          ENDDO
        ENDDO
        END
        """,
        {"N": 5},
    ),
    (
        "transpose-ish",
        """
        PROGRAM p
        PARAMETER N = 4
        REAL A(N,N)
        DO I = 1, N
          DO J = 1, N
            A(I,J) = A(J,I) + 1.0
          ENDDO
        ENDDO
        END
        """,
        {"N": 4},
    ),
    (
        "coupled",
        """
        PROGRAM p
        PARAMETER N = 5
        REAL A(N,N)
        DO I = 1, N - 1
          DO J = 1, N - 1
            A(I+1,J) = A(J,I) + A(I,J+1)
          ENDDO
        ENDDO
        END
        """,
        {"N": 5},
    ),
    (
        "negative-step",
        """
        PROGRAM p
        PARAMETER N = 6
        REAL A(N)
        DO I = N, 2, -1
          A(I) = A(I-1) + 1.0
        ENDDO
        END
        """,
        {"N": 6},
    ),
    (
        "imperfect",
        """
        PROGRAM p
        PARAMETER N = 4
        REAL A(N,N), B(N)
        DO I = 1, N
          B(I) = A(I,1)
          DO J = 1, N
            A(I,J) = B(I) + 1.0
          ENDDO
        ENDDO
        END
        """,
        {"N": 4},
    ),
]


class TestSoundnessVsOracle:
    @pytest.mark.parametrize("name,source,env", CASES, ids=[c[0] for c in CASES])
    def test_analysis_covers_all_real_dependences(self, name, source, env):
        prog = parse_program(source)
        prog = prog.with_params(env)
        deps = region_dependences(prog, include_inputs=True)
        exact = brute_force_dependences(prog, env, include_inputs=True)
        missing = analysis_covers(deps, exact)
        assert missing == [], f"{name}: analysis missed {missing}"


@st.composite
def random_nest_programs(draw):
    """Random depth-2 nests with affine 2D subscripts and small bounds."""
    n = draw(st.integers(2, 5))
    coeff = st.integers(-1, 2)
    offset = st.integers(-1, 2)

    def subscript():
        a = draw(coeff)
        b = draw(coeff)
        c = draw(offset)
        terms = []
        if a:
            terms.append(f"{a}*I" if a != 1 else "I")
        if b:
            terms.append(f"{b}*J" if b != 1 else "J")
        expr = " + ".join(terms) if terms else "0"
        expr = f"{expr} + {c + 3}"  # keep subscripts >= 1-ish
        return expr

    lhs = f"A({subscript()}, {subscript()})"
    rhs = f"A({subscript()}, {subscript()})"
    src = f"""
    PROGRAM p
    PARAMETER N = {n}
    REAL A(20, 20)
    DO I = 1, N
      DO J = 1, N
        {lhs} = {rhs} + 1.0
      ENDDO
    ENDDO
    END
    """
    return src, {"N": n}


class TestSoundnessProperty:
    @settings(max_examples=60, deadline=None)
    @given(random_nest_programs())
    def test_random_programs_covered(self, case):
        source, env = case
        prog = parse_program(source).with_params(env)
        deps = region_dependences(prog, include_inputs=True)
        exact = brute_force_dependences(prog, env, include_inputs=True)
        assert analysis_covers(deps, exact) == []


class TestClassicSIVCases:
    """Textbook SIV shapes (weak-zero, weak-crossing) through the FME path."""

    def test_weak_zero_siv(self):
        # A(I) vs A(5): dependence only at the single iteration I = 5.
        common = loops(("I", 1, 10))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", 5), common)
        assert len(vecs) >= 1
        # The I=5 instance is the only source; the sink is loop-invariant,
        # so every direction around iteration 5 is feasible but nothing
        # outside the loop range is claimed.
        assert all(v.components[0] in ("<", ">", 0) for v in vecs)

    def test_weak_zero_siv_out_of_range(self):
        common = loops(("I", 1, 10))
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", 50), common)
        assert vecs == []

    def test_weak_crossing_siv(self):
        # A(I) vs A(N+1-I) with N=10: crossing at I = 5.5 -> pairs cross.
        common = loops(("I", 1, 10))
        a = Ref("A", (Affine.var("I"),))
        b = Ref("A", (Affine.build({"I": -1}, 11),))
        vecs = analyze_ref_pair(a, b, common)
        dirs = {v.components[0] for v in vecs}
        assert "<" in dirs and ">" in dirs

    def test_weak_crossing_no_integer_solution(self):
        # A(2I) vs A(21-2I): 2i' = 21 - 2i has no integer solution.
        common = loops(("I", 1, 10))
        a = Ref("A", (Affine.var("I", 2),))
        b = Ref("A", (Affine.build({"I": -2}, 21),))
        assert analyze_ref_pair(a, b, common) == []

    def test_strided_loop_distance(self):
        # DO I = 1, 20, 2: A(I) vs A(I-4) -> 2 iterations apart.
        strided = [Loop.make("I", 1, 20, [], step=2)]
        vecs = analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I-4"), strided)
        assert vecs == [DepVector.of(2)]

    def test_strided_loop_off_grid(self):
        # A(I) vs A(I-3) with step 2: odd offset never lands on the grid.
        strided = [Loop.make("I", 1, 20, [], step=2)]
        assert analyze_ref_pair(Ref.make("A", "I"), Ref.make("A", "I-3"), strided) == []

    def test_triangular_lower_bound_value_space(self):
        # lb depends NEGATIVELY on the outer var: the value-space vectors
        # must not be skewed by the bound (the soundness bug the skewing
        # work exposed).
        outer = Loop.make("I", 1, 8, [])
        inner = Loop.make("J", Affine.build({"I": -1}, 10), 20, [])
        vecs = analyze_ref_pair(
            Ref.make("A", "I", "J"), Ref.make("A", "I-1", "J+1"), [outer, inner]
        )
        assert vecs == [DepVector.of(1, -1)]


# ----------------------------------------------------------------------
# Closed-form pairs, checked against the Fourier-Motzkin oracle
# ----------------------------------------------------------------------
def closed_and_fme(ref_a, ref_b, common, only_a=()):
    """(closed form or None, FME vectors) of one pair screening left open."""
    system = dep_tests._pair_system(ref_a, ref_b, common, only_a, (), Counter())
    assert not isinstance(system, list), "screening decided the pair"
    return dep_tests._closed_form_vectors(system), dep_tests._fme_vectors(system)


@contextmanager
def recorded_pairs():
    """Collect the arguments of every pair analysed inside the block.

    The pair memo is cleared first so that every analysis is recorded.
    """
    seen = []
    real = dep_tests._analyze_ref_pair_impl

    def record(ref_a, ref_b, common, only_a, only_b, kinds):
        seen.append((ref_a, ref_b, tuple(common), tuple(only_a), tuple(only_b)))
        return real(ref_a, ref_b, common, only_a, only_b, kinds)

    dep_tests._PAIR_CACHE.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dep_tests, "_analyze_ref_pair_impl", record)
        yield seen


def closed_form_mismatches(pairs):
    """Eligible-pair count, and each pair whose closed form differs from FME."""
    eligible, wrong = 0, []
    for args in pairs:
        system = dep_tests._pair_system(*args, Counter())
        if isinstance(system, list):
            continue
        closed = dep_tests._closed_form_vectors(system)
        if closed is None:
            continue
        eligible += 1
        fme = dep_tests._fme_vectors(system)
        if closed != fme:
            wrong.append((args, closed, fme))
    return eligible, wrong


class TestClosedFormPairs:
    def test_symbolically_empty_loop_refutes(self):
        # Distance 1 on I needs N >= 2; DO J = N, 1 runs only for N <= 1.
        common = [Loop.make("I", 1, "N", []), Loop.make("J", "N", 1, [])]
        a, b = Ref.make("A", "I", "J"), Ref.make("A", "I-1", "J")
        assert closed_and_fme(a, b, common) == ([], [])
        assert analyze_ref_pair(a, b, common) == []
        # At distance 0 both loops run once when N = 1.
        same = [DepVector.of(0, 0)]
        assert closed_and_fme(a, a, common) == (same, same)

    def test_negative_step(self):
        common = [Loop.make("I", "N", 1, [], step=-1)]
        a, b = Ref.make("A", "I"), Ref.make("A", "I+1")
        one = [DepVector.of(1)]
        assert closed_and_fme(a, b, common) == (one, one)

    def test_free_loop_is_star(self):
        common = loops(("I", 1, "N"), ("J", 1, 8), ("K", 2, "M"))
        a, b = Ref.make("A", "K", "I"), Ref.make("A", "K-1", "I+2")
        vec = [DepVector.of(-2, "*", 1)]
        assert closed_and_fme(a, b, common) == (vec, vec)

    def test_distance_beyond_constant_trip(self):
        # Separable, but pinning refutes it first: |5| exceeds I's trip.
        common = loops(("I", 1, 3), ("J", 1, "N"))
        a, b = Ref.make("A", "I", "J"), Ref.make("A", "I-5", "J")
        assert analyze_ref_pair(a, b, common) == []

    @pytest.mark.parametrize(
        "a,b,common,only_a",
        [
            ("I", "I-4", [Loop.make("I", 1, 20, [], step=2)], ()),
            ("I+M", "I", loops(("I", 1, "N")), ()),
            # Distance 3 on J needs I >= 4: only FME sees the coupling.
            (
                ("I", "J"),
                ("I", "J-3"),
                [Loop.make("I", 1, 3, []), Loop.make("J", 1, "I", [])],
                (),
            ),
            ("I+J", "I+J", loops(("I", 1, 10), ("J", 1, 10)), ()),
            ("I", "I-1", loops(("I", 1, "N")), loops(("J", 1, "N"))),
        ],
        ids=["strided", "symbolic-offset", "triangular", "coupled", "only-a"],
    )
    def test_falls_through_to_fme(self, a, b, common, only_a):
        ref_a = Ref.make("A", *(a if isinstance(a, tuple) else (a,)))
        ref_b = Ref.make("A", *(b if isinstance(b, tuple) else (b,)))
        closed, fme = closed_and_fme(ref_a, ref_b, common, only_a)
        assert closed is None
        assert analyze_ref_pair(ref_a, ref_b, common, only_a) == fme

    def test_registry_pairs_match_fme(self):
        # Every pair the compile op analyses (compound, plus the original
        # and optimized programs' dependences with inputs), per program
        # from cold memo caches, for all entries at three sizes.
        with recorded_pairs() as seen:
            for instance in ("mini", "small", "medium"):
                for entry in get_set("all").entries():
                    for cache in registered_caches().values():
                        cache.clear()
                    program = entry.program(instance=instance)
                    out = compound(program, CostModel(cls=16)).program
                    region_dependences(program, include_inputs=True)
                    region_dependences(out, include_inputs=True)
        eligible, wrong = closed_form_mismatches(seen)
        assert wrong == []
        assert eligible > 2000

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gennest_pairs_match_fme(self, seed):
        program = generate_program(random.Random(seed))
        with recorded_pairs() as seen:
            region_dependences(program, include_inputs=True)
            for loop in iter_loops(program):
                region_dependences(loop, include_inputs=True)
        assert closed_form_mismatches(seen)[1] == []

    def test_closed_form_counter_replays_on_cache_hits(self):
        program = matmul(12, "IJK")

        def counters():
            with use_obs(Obs()) as obs:
                region_dependences(program, include_inputs=True)
                return obs.metrics.snapshot()["counters"]

        dep_tests._PAIR_CACHE.clear()
        cold = counters()
        warm = counters()
        assert warm.get("dep.cache.misses", 0) == 0
        assert cold["dep.pairs.closed_form"] > 0
        assert warm["dep.pairs.closed_form"] == cold["dep.pairs.closed_form"]
