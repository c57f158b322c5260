"""The lint fuzz oracle: clean on honest engines, loud on broken ones."""

from repro.frontend import parse_program
from repro.lint import Diagnostic, FixIt, LintResult
from repro.suite import kernels
from repro.transforms.recipe import Recipe
from repro.verify.lintcheck import check_lint
from repro.verify.oracles import Mismatch
from repro.verify.runner import run_fuzz


def _program(body):
    return parse_program(
        f"PROGRAM p\nPARAMETER N = 8\nREAL A(N), B(N)\n{body}\nEND"
    )


class TestCheckLint:
    def test_clean_on_pessimized_kernel(self):
        assert check_lint(kernels.matmul(8, "KIJ")) is None

    def test_detects_inequivalent_fixit(self, monkeypatch):
        import repro.lint.engine as lint_engine

        original = _program("DO I = 1, N\n  A(I) = B(I)\nENDDO")
        wrong = _program("DO I = 1, N\n  A(I) = B(I) + 1\nENDDO")

        def dishonest_lint(program, **kwargs):
            fixit = FixIt(
                "permute", "bogus", wrong, Recipe(), verified=True, verification="oracle"
            )
            diag = Diagnostic(
                "LOC002", "loop-order", "warning", "synthetic", fixit=fixit
            )
            return LintResult(
                program=program,
                diagnostics=(diag,),
                checks_run=("LOC002",),
                line=128,
                capacity=64,
                miss_ratio=0.0,
            )

        # check_lint reads the --fix driver's first lint round, which
        # looks lint_program up in the engine module.
        monkeypatch.setattr(lint_engine, "lint_program", dishonest_lint)
        mismatch = check_lint(original)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "fixit-state"

    def test_detects_unverified_fixit_on_warning(self, monkeypatch):
        import repro.lint.engine as lint_engine

        original = _program("DO I = 1, N\n  A(I) = B(I)\nENDDO")

        def sloppy_lint(program, **kwargs):
            fixit = FixIt("permute", "unverified", program, Recipe())
            diag = Diagnostic(
                "LOC002", "loop-order", "warning", "synthetic", fixit=fixit
            )
            return LintResult(
                program=program,
                diagnostics=(diag,),
                checks_run=("LOC002",),
                line=128,
                capacity=64,
                miss_ratio=0.0,
            )

        monkeypatch.setattr(lint_engine, "lint_program", sloppy_lint)
        mismatch = check_lint(original)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.where == "fixit-unverified"


class TestRunnerIntegration:
    def test_fuzz_report_counts_lint_rounds(self, monkeypatch):
        import repro.verify.runner as runner

        checked = []

        def spy(program, **kwargs):
            checked.append(program.name)
            return check_lint(program, **kwargs)

        monkeypatch.setattr(runner, "check_lint", spy)
        report = run_fuzz(3, seed=0)
        assert report.ok, [f.repro_script() for f in report.failures]
        assert report.cases == 3
        assert checked == ["FUZZ0", "FUZZ1", "FUZZ2"]  # once per case
        assert "lint cross-check" in report.summary()
