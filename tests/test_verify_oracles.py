"""Tests for the execution-equivalence oracles (repro.verify.oracles).

Includes the mutation smoke test required by the verification subsystem:
a deliberately broken legality check must be caught by the fuzzer, and
the shrunken reproduction must stay under 10 pretty-printed lines.
"""

import io
from contextlib import redirect_stdout
from unittest import mock

import pytest

from repro.errors import TransformError
from repro.frontend import parse_program
from repro.ir import pretty_program
from repro.model import CostModel
from repro.transforms.unroll_jam import unroll_and_jam
from repro.verify.oracles import (
    Trial,
    check_trial,
    run_state,
    transform_trials,
)
from repro.verify.runner import replay_case, run_fuzz

MATMUL = """
PROGRAM MM
REAL A(6,6), B(6,6), C(6,6)
DO I = 1, 6
  DO J = 1, 6
    DO K = 1, 6
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""

RECURRENCE = """
PROGRAM REC
REAL A(8,8)
DO I = 2, 6
  DO J = 2, 6
    A(I,J) = A(I-1,J) + A(I,J-1)
  ENDDO
ENDDO
END
"""


class TestTransformTrials:
    def test_matmul_trials_cover_the_pipeline(self):
        program = parse_program(MATMUL)
        trials = transform_trials(program, CostModel())
        kinds = {t.transform for t in trials}
        assert {"permute", "reversal", "tiling", "unroll-jam", "compound"} <= kinds

    def test_accepted_trials_preserve_output(self):
        program = parse_program(MATMUL)
        base = run_state(program)
        for trial in transform_trials(program, CostModel()):
            result = check_trial(base, trial)
            assert not result.is_failure, (
                f"{trial.transform} {trial.detail} admitted by "
                f"{trial.reason} changed output: {result.differing or result.crashed}"
            )

    def test_recurrence_rejects_interchange(self):
        # A(I,J) = A(I-1,J) + A(I,J-1) has dependences (1,0) and (0,1):
        # every permutation keeps them lexicographically positive, but
        # reversal of either loop is illegal and must be rejected.
        program = parse_program(RECURRENCE)
        trials = transform_trials(program, CostModel())
        reversals = [t for t in trials if t.transform == "reversal"]
        assert reversals and all(not t.accepted for t in reversals)
        base = run_state(program)
        for trial in reversals:
            result = check_trial(base, trial)
            # The oracle confirms the rejection was warranted.
            assert not result.equal

    def test_trial_ordering_is_deterministic(self):
        program = parse_program(MATMUL)
        a = [(t.transform, t.detail) for t in transform_trials(program)]
        b = [(t.transform, t.detail) for t in transform_trials(program)]
        assert a == b


class TestCheckTrial:
    def test_crash_of_accepted_trial_is_failure(self):
        program = parse_program(MATMUL)
        broken = parse_program(
            """
PROGRAM MM
REAL A(2)
DO I = 1, 5
  A(I) = 1
ENDDO
END
"""
        )
        base = run_state(program)
        trial = Trial("permute", "x", accepted=True, reason="r", program=broken)
        result = check_trial(base, trial)
        assert result.is_failure and result.crashed

    def test_compare_restricts_arrays(self):
        program = parse_program(MATMUL)
        base = run_state(program)
        trial = Trial(
            "scalar-replace",
            "x",
            accepted=True,
            reason="r",
            program=program,
            compare=("C",),
        )
        assert check_trial(base, trial).equal


class TestUnrollJamTriangularGuard:
    TRIANGULAR = """
PROGRAM TRI
REAL B(8, 16)
DO I = 1, 6
  DO J = 1, I+1
    B(I+1, I+J-1) = 2
  ENDDO
ENDDO
END
"""

    def test_rejected_even_without_legality_check(self):
        # Jamming substitutes the outer var in statements but not in
        # inner loop headers, so a triangular nest would execute the
        # wrong inner range — the guard is mechanical, not a dependence
        # question, and fires regardless of check=.
        nest = parse_program(self.TRIANGULAR).body[0]
        with pytest.raises(TransformError, match="triangular"):
            unroll_and_jam(nest, 2)
        with pytest.raises(TransformError, match="triangular"):
            unroll_and_jam(nest, 2, check=False)

    def test_rectangular_nest_still_jams(self):
        nest = parse_program(MATMUL).body[0]
        jammed = unroll_and_jam(nest, 2)
        assert jammed.step == 2


class TestMutationSmoke:
    def test_broken_legality_is_caught_with_small_repro(self):
        # Sabotage the permutation/reversal legality check: everything
        # is declared legal. The fuzzer must catch an admitted transform
        # that changes program output, and the shrunken repro must be
        # under 10 pretty-printed lines.
        with mock.patch(
            "repro.transforms.legality.order_is_legal",
            lambda *args, **kwargs: True,
        ):
            report = run_fuzz(10, seed=0, shrink=True, max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "transform"
        assert failure.transform in ("permute", "reversal")
        assert failure.reason in ("order-legal", "reversal-legal")
        shrunk = failure.shrunk if failure.shrunk is not None else failure.program
        lines = pretty_program(shrunk).strip().splitlines()
        assert len(lines) < 10
        # The repro script names the admitting legality slug.
        assert f"admitted-by={failure.reason}" in failure.repro_script()

    def test_intact_legality_passes_quick(self):
        report = run_fuzz(4, seed=0)
        assert report.ok, [f.repro_script() for f in report.failures]

    @pytest.mark.slow
    def test_intact_legality_passes_same_cases(self):
        report = run_fuzz(10, seed=0)
        assert report.ok, [f.repro_script() for f in report.failures]
        assert report.trials > 0 and report.accepted > 0


class TestReplay:
    def test_replay_checks_the_fuzzed_cache_streams(self, monkeypatch):
        # The repro command a cache failure prints must re-check the very
        # streams the fuzz run checked.
        import repro.verify.cachecheck as cachecheck

        streams = []
        for name in ("check_cache_pair", "check_hierarchy_pair"):
            real = getattr(cachecheck, name)

            def recording(*args, real=real, name=name):
                streams.append((name, list(args[-2])))
                return real(*args)

            monkeypatch.setattr(cachecheck, name, recording)
        run_fuzz(1, seed=0)
        fuzzed, streams[:] = list(streams), []
        with redirect_stdout(io.StringIO()):
            assert replay_case(seed=0, case=0)
        assert [name for name, _ in fuzzed] == [
            "check_cache_pair",
            "check_hierarchy_pair",
        ]
        assert streams == fuzzed

    def test_fusion_capture_case_is_clean(self):
        # Seed 3 case 162: compound fuses a nest permuted to DO J / DO I
        # with a DO I nest at depth 1 (J renamed to I over an inner DO I).
        with redirect_stdout(io.StringIO()):
            assert replay_case(seed=3, case=162)

    def test_replay_fails_the_case_the_fuzzer_reported(self):
        with mock.patch(
            "repro.transforms.legality.order_is_legal",
            lambda *args, **kwargs: True,
        ):
            report = run_fuzz(10, seed=0, max_failures=1)
            failure = report.failures[0]
            out = io.StringIO()
            with redirect_stdout(out):
                assert not replay_case(seed=failure.seed, case=failure.case)
        assert f"FAIL {failure.headline()}" in out.getvalue()
