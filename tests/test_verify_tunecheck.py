"""The autotune fuzz oracle: clean on the honest search, loud on lies."""

from dataclasses import replace

from repro.autotune import autotune
from repro.autotune.space import CHECKED, Candidate, NestPlan
from repro.frontend import parse_program
from repro.model.oracle import OracleCost, canonical_key
from repro.suite import kernels
from repro.verify.oracles import Mismatch
from repro.verify.runner import run_fuzz
from repro.verify.tunecheck import check_autotune


def _program(body):
    return parse_program(
        f"PROGRAM p\nPARAMETER N = 8\nREAL A(N,N), B(N,N)\n{body}\nEND"
    )


NEST = "DO I = 1, N\n  DO J = 1, N\n    A(I,J) = B(I,J)\n  ENDDO\nENDDO"


def _genuine_result(program):
    return autotune(program, line=128, capacity=64, budget=16, beam=2, topk=0)


def _fake_autotune(result):
    def fake(program, **kwargs):
        return result

    return fake


class TestCheckAutotune:
    def test_clean_on_pessimized_kernel(self):
        assert check_autotune(kernels.matmul(8, "KIJ")) is None

    def test_clean_on_simple_nest(self):
        assert check_autotune(_program(NEST)) is None

    def test_detects_miss_regression(self, monkeypatch):
        import repro.autotune as tune_pkg

        program = _program(NEST)
        result = _genuine_result(program)
        assert result.original.cost is not None
        worse = replace(
            result.original,
            cost=OracleCost(
                misses=result.original.cost.misses + 100.0,
                accesses=result.original.cost.accesses,
            ),
        )
        monkeypatch.setattr(
            tune_pkg, "autotune", _fake_autotune(replace(result, best=worse))
        )
        mismatch = check_autotune(program)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "monotone"

    def test_detects_unapproved_legality_slug(self, monkeypatch):
        import repro.autotune as tune_pkg

        program = _program(NEST)
        result = _genuine_result(program)
        sloppy = replace(
            result.best,
            plans=(
                NestPlan(0, ("I", "J"), ("I", "J"), (), "vibes"),
            ),
        )
        doctored = replace(
            result, best=sloppy, ranked=(sloppy,) + result.ranked[1:]
        )
        monkeypatch.setattr(tune_pkg, "autotune", _fake_autotune(doctored))
        mismatch = check_autotune(program)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "plan-legality"

    def test_detects_illegal_reorder(self, monkeypatch):
        import repro.autotune as tune_pkg

        # Interchange flips the (1, -1) dependence: illegal.
        original = _program(
            "DO I = 2, N\n  DO J = 1, 7\n"
            "    A(I,J) = A(I-1,J+1)\n  ENDDO\nENDDO"
        )
        swapped = _program(
            "DO J = 1, 7\n  DO I = 2, N\n"
            "    A(I,J) = A(I-1,J+1)\n  ENDDO\nENDDO"
        )
        result = _genuine_result(original)
        assert result.original.cost is not None
        lying = Candidate(
            program=swapped,
            text=canonical_key(swapped),
            source="search",
            fusion="none",
            plans=(NestPlan(0, ("I", "J"), ("J", "I"), (), CHECKED),),
            cost=result.original.cost,
        )
        doctored = replace(result, best=lying, ranked=(lying,))
        monkeypatch.setattr(tune_pkg, "autotune", _fake_autotune(doctored))
        mismatch = check_autotune(original)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "order-illegal"

    def test_detects_state_mismatch(self, monkeypatch):
        import repro.autotune as tune_pkg

        program = _program(NEST)
        wrong = _program(
            "DO I = 1, N\n  DO J = 1, N\n    A(I,J) = B(I,J) + 1\n"
            "  ENDDO\nENDDO"
        )
        result = _genuine_result(program)
        assert result.original.cost is not None
        lying = Candidate(
            program=wrong,
            text=canonical_key(wrong),
            source="search",
            fusion="none",
            plans=(),
            cost=result.original.cost,
        )
        doctored = replace(
            result, best=lying, ranked=(lying,), compound=result.original
        )
        monkeypatch.setattr(tune_pkg, "autotune", _fake_autotune(doctored))
        mismatch = check_autotune(program)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "state"

    def test_crashes_are_reported_not_raised(self, monkeypatch):
        import repro.autotune as tune_pkg

        def exploding(program, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(tune_pkg, "autotune", exploding)
        mismatch = check_autotune(_program(NEST))
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "crash"
        assert "boom" in mismatch.detail


class TestRunnerIntegration:
    def test_fuzz_report_counts_tune_rounds(self, monkeypatch):
        import repro.verify.runner as runner

        checked = []

        def spy(program, **kwargs):
            checked.append(program.name)
            return check_autotune(program, **kwargs)

        monkeypatch.setattr(runner, "check_autotune", spy)
        report = run_fuzz(3, seed=0)
        assert report.ok, [f.repro_script() for f in report.failures]
        assert report.cases == 3
        assert checked == ["FUZZ0", "FUZZ1", "FUZZ2"]  # once per case
        assert "autotune cross-check" in report.summary()
