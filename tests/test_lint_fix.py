"""Acceptance: lint --fix is verified-legal and miss-monotone.

For each deliberately pessimized kernel variant, applying every fix-it
must (a) keep the program execution-equivalent (brute-force oracle),
(b) never increase the predicted miss count, and (c) leave every applied
fix-it verified.
"""

import pytest

from repro.lint import apply_fixes, lint_program
from repro.lint.verifyfix import VERIFY_PARAM_CAP, predicted_misses, verify_fixit
from repro.suite import kernels
from repro.verify.lintcheck import check_lint

LINE = 64
CAPACITY = 16

PESSIMIZED = {
    "matmul_kij": lambda: kernels.matmul(16, "KIJ"),
    "matmul_ijk": lambda: kernels.matmul(16, "IJK"),
    "cholesky_kij": lambda: kernels.cholesky(12, "KIJ"),
}


@pytest.mark.parametrize("name", sorted(PESSIMIZED))
class TestFixAcceptance:
    def test_fix_never_worsens_and_verifies(self, name):
        program = PESSIMIZED[name]()
        base_misses, base_accesses = predicted_misses(program, LINE, CAPACITY)
        outcome = apply_fixes(program, line=LINE, capacity=CAPACITY)
        final_misses, _ = predicted_misses(outcome.program, LINE, CAPACITY)
        assert final_misses <= base_misses
        # Miss ratio per original access never worsens either.
        assert final_misses / base_accesses <= base_misses / base_accesses
        # The final program passes the independent oracles vs the original.
        ok, slug = verify_fixit(program, outcome.program)
        assert ok, f"{name}: fixed program failed the oracle: {slug}"
        # Each applied fix recorded monotone scores.
        for applied in outcome.applied:
            assert applied.miss_after <= applied.miss_before + 1e-12

    def test_lintcheck_oracle_clean(self, name):
        assert check_lint(PESSIMIZED[name]()) is None


class TestFixProgress:
    def test_pessimal_matmul_is_repaired(self):
        program = kernels.matmul(16, "KIJ")
        outcome = apply_fixes(program, line=LINE, capacity=CAPACITY)
        transforms = [a.transform for a in outcome.applied]
        assert "permute" in transforms
        base_misses, _ = predicted_misses(program, LINE, CAPACITY)
        final_misses, _ = predicted_misses(outcome.program, LINE, CAPACITY)
        assert final_misses < base_misses  # strict improvement, not just <=
        # After fixing, the loop-order diagnostic is gone.
        assert not any(
            d.check_id == "LOC002" for d in outcome.result.diagnostics
        )

    def test_memory_ordered_kernel_needs_no_fix(self):
        outcome = apply_fixes(
            kernels.matmul(16, "JKI"),
            checks=("LOC002",),
            line=LINE,
            capacity=CAPACITY,
        )
        assert outcome.applied == ()
        assert outcome.program is not None

    def test_all_suite_kernels_lint_clean_of_errors(self):
        for factory in (
            lambda: kernels.matmul(16, "JKI"),
            lambda: kernels.cholesky(12, "JKI"),
            lambda: kernels.adi(16, "distributed"),
            lambda: kernels.jacobi(16),
            lambda: kernels.transpose(16),
        ):
            result = lint_program(factory(), line=LINE, capacity=CAPACITY)
            assert result.errors == 0, result.program.name


# ----------------------------------------------------------------------
# Verification at capped trip counts, through the fix-it's recipe
# ----------------------------------------------------------------------
MATMUL_KIJ_64 = """
PROGRAM mm64
REAL A(64,64), B(64,64), C(64,64)
DO K = 1, 64
  DO I = 1, 64
    DO J = 1, 64
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""

WAVEFRONT_64 = """
PROGRAM wave
REAL A(64,64)
DO I = 2, 64
  DO J = 1, 63
    A(I,J) = A(I-1,J+1) + 1
  ENDDO
ENDDO
END
"""


def _max_trip(program):
    from repro.ir.visit import iter_loops

    env = program.param_env
    return max(
        loop.trip_count(env)
        for loop in iter_loops(program)
        if not (loop.lb.names | loop.ub.names) - set(env)
    )


@pytest.fixture
def interpreted(monkeypatch):
    """Every program the verifier interprets or hands to the oracle."""
    import repro.verify.depforce as depforce
    import repro.verify.oracles as oracles

    seen = []
    run_state = oracles.run_state
    oracle = depforce.brute_force_dependences

    def spy_state(program):
        seen.append(program)
        return run_state(program)

    def spy_oracle(program, env, include_inputs=False):
        seen.append(program)
        return oracle(program, env, include_inputs)

    monkeypatch.setattr(oracles, "run_state", spy_state)
    monkeypatch.setattr(depforce, "brute_force_dependences", spy_oracle)
    return seen


class TestCappedVerification:
    def test_constant_bound_fixit_verified_at_capped_trips(self, interpreted):
        from repro.frontend import parse_program

        program = parse_program(MATMUL_KIJ_64)
        result = lint_program(program, checks=("LOC002",), line=LINE, capacity=CAPACITY)
        fixits = [d.fixit for d in result.diagnostics if d.fixit is not None]
        assert fixits and all(f.verified for f in fixits)
        assert interpreted, "verification must interpret the programs"
        assert max(_max_trip(p) for p in interpreted) <= VERIFY_PARAM_CAP

    def test_illegal_order_in_recipe_fails_verification(self, interpreted):
        # (1,-1) dependence: interchanging I and J reverses it. The recipe
        # replays without a legality check, so the oracles must catch it.
        from repro.frontend import parse_program
        from repro.transforms.recipe import Permute, Recipe

        program = parse_program(WAVEFRONT_64)
        recipe = Recipe((Permute((0,), ("J", "I")),))
        candidate = recipe.replay(program)
        ok, slug = verify_fixit(program, candidate, recipe)
        assert not ok
        assert slug.startswith(("state-mismatch", "dependence-uncovered")), slug
        assert max(_max_trip(p) for p in interpreted) <= VERIFY_PARAM_CAP

    def test_recipe_that_does_not_rebuild_the_candidate_is_not_trusted(self):
        # The identity recipe does not reproduce the interchanged program,
        # so the candidate itself is checked (and fails).
        from repro.frontend import parse_program
        from repro.transforms.recipe import Permute, Recipe

        program = parse_program(WAVEFRONT_64.replace("64", "6").replace("63", "5"))
        candidate = Recipe((Permute((0,), ("J", "I")),)).replay(program)
        ok, slug = verify_fixit(program, candidate, Recipe())
        assert not ok, slug

    def test_original_verified_once_per_lint_run(self, interpreted):
        from repro.model import registered_caches

        registered_caches()["verify.original.cache"].clear()
        program = kernels.matmul(16, "KIJ")
        result = lint_program(program, line=LINE, capacity=CAPACITY)
        verified = sum(
            1 for d in result.diagnostics if d.fixit is not None and d.fixit.verified
        )
        assert verified >= 2
        # One oracle call per fix-it, one interpreter run per fix-it, and
        # the original's run shared by all of them.
        assert len(interpreted) == 2 * verified + 1


class TestCapped:
    def test_constant_parameter_and_triangular_trips_are_capped(self):
        from repro.frontend import parse_program
        from repro.lint.verifyfix import capped

        program = parse_program(
            """
PROGRAM t
PARAMETER N = 40
REAL A(64,64), B(N)
DO K = 1, 64
  DO J = K, 64
    A(J,K) = A(J,K) + 1
  ENDDO
ENDDO
DO I = 64, 1, -1
  B(1) = A(I,1)
ENDDO
DO I = 1, N
  B(I) = 2
ENDDO
END
"""
        )
        small = capped(program)
        assert small.param_env == {"N": VERIFY_PARAM_CAP}
        first, backward, param = small.body
        assert (str(first.lb), str(first.ub)) == ("1", "8")
        inner = first.body[0]
        assert (str(inner.lb), str(inner.ub)) == ("K", "8")  # prefix of K..64
        assert (str(backward.lb), str(backward.ub), backward.step) == ("64", "57", -1)
        assert str(param.ub) == "N"
        assert _max_trip(small) <= VERIFY_PARAM_CAP
