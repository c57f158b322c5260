"""Set-runner behaviour: whole-set execution, failure isolation, CLI.

The failure-path tests inject a deliberately broken kernel into the
registry (removed again by the fixture) and check the contract from the
issue: one kernel raising mid-set must not poison sibling shards, the
report marks it failed, and the CLI exits non-zero — covered at
``--jobs 1`` (serial) and sharded.
"""

import json
import os

import pytest

from repro.obs.report import render_set_report
from repro.suite.registry import SETS, SUITE, add_entry, register_set
from repro.suite.runner import EntryResult, run_set


def _boom_build(n: int):
    raise RuntimeError(f"kernel exploded at n={n}")


@pytest.fixture
def failing_set():
    """A three-member set whose middle entry raises while building."""
    add_entry("boom_kernel", _boom_build, "kernel", 8,
              source="injected failure for runner tests")
    register_set("failset", "injected failure-path set",
                 ["matmul", "boom_kernel", "jacobi"])
    yield "failset"
    SUITE.pop("boom_kernel")
    SETS.pop("failset")


class TestRunSet:
    def test_smoke_set_runs_whole_and_clean(self):
        result = run_set("smoke", instance="mini", jobs=1)
        assert result.ok
        assert [r.name for r in result.results] == list(SETS["smoke"].members)
        for row in result.results:
            assert row.status == "ok"
            assert row.n == SUITE[row.name].instances["mini"]
            assert row.accesses > 0
            assert row.miss_before is not None and row.miss_after is not None

    def test_unknown_set_raises_keyerror_with_choices(self):
        with pytest.raises(KeyError, match="paper"):
            run_set("no_such_set")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_failure_does_not_poison_siblings(self, failing_set, jobs):
        result = run_set(failing_set, instance="mini", jobs=jobs)
        assert not result.ok
        by_name = {r.name: r for r in result.results}
        assert by_name["matmul"].ok
        assert by_name["jacobi"].ok
        boom = by_name["boom_kernel"]
        assert boom.status == "failed"
        assert boom.error
        assert result.failures == (boom,)

    def test_serial_failure_captures_the_real_exception(self, failing_set):
        result = run_set(failing_set, instance="mini", jobs=1)
        (boom,) = result.failures
        assert "RuntimeError" in boom.error
        assert "kernel exploded" in boom.error
        assert "RuntimeError" in boom.traceback

    def test_report_payload_marks_failure(self, failing_set):
        payload = run_set(failing_set, instance="mini", jobs=1).report_payload()
        assert payload["entries"] == 3
        assert payload["failed"] == 1
        rows = {row["program"]: row for row in payload["rows"]}
        assert rows["boom_kernel"]["status"] == "failed"
        assert rows["boom_kernel"]["miss_before"] is None
        assert rows["matmul"]["status"] == "ok"

        markdown = render_set_report(payload, fmt="md")
        assert "FAIL" in markdown.splitlines()[0]
        assert "boom_kernel" in markdown
        html = render_set_report(payload, fmt="html")
        assert "failed" in html

    def test_improvement_pp_none_when_unscored(self):
        row = EntryResult(name="x", category="kernel", status="failed",
                          instance="mini")
        assert row.improvement_pp is None
        assert not row.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_row_carries_traceback_and_input_digest(
        self, failing_set, jobs
    ):
        """The ledger contract: a failed row is actionable on its own.

        Both the serial path (exception captured in-process) and the
        sharded path (ShardFailure pickled back from a worker) must
        produce the same failed-row shape: the real traceback and a
        stable digest of the shard's input arguments.
        """
        from repro.experiments.common import shard_input_digest

        result = run_set(failing_set, instance="mini", jobs=jobs)
        (boom,) = result.failures
        assert "RuntimeError" in boom.traceback
        assert "kernel exploded" in boom.traceback
        expected = shard_input_digest(
            ("boom_kernel", "mini", result.line, result.capacity)
        )
        assert boom.digest == expected

        rows = {
            row["program"]: row
            for row in result.ledger_payload()["rows"]
        }
        failed_row = rows["boom_kernel"]
        assert failed_row["status"] == "failed"
        assert "kernel exploded" in failed_row["error"]
        assert "RuntimeError" in failed_row["traceback"]
        assert failed_row["digest"] == expected
        # ok rows stay compact in the ledger: no bulky diagnosis fields.
        assert "traceback" not in rows["matmul"]
        assert rows["matmul"]["status"] == "ok"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_row_digest_is_replay_stable(self, failing_set, jobs):
        first = run_set(failing_set, instance="mini", jobs=jobs)
        second = run_set(failing_set, instance="mini", jobs=jobs)
        assert first.failures[0].digest == second.failures[0].digest
        assert first.failures[0].digest  # non-empty, 12-hex config digest
        assert len(first.failures[0].digest) == 12


class TestRunCLI:
    def _main(self, argv):
        from repro.suite.__main__ import main

        return main(argv)

    def test_failed_set_exits_nonzero_and_report_marks_it(
        self, failing_set, tmp_path, capsys
    ):
        report = tmp_path / "fail.md"
        rc = self._main(
            ["run", failing_set, "--instance", "mini", "--jobs", "1",
             "--report", str(report), "--no-ledger"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED boom_kernel" in err
        text = report.read_text()
        assert "FAIL" in text.splitlines()[0]
        assert "boom_kernel" in text

    def test_clean_set_exits_zero_and_writes_html(self, tmp_path, capsys):
        report = tmp_path / "smoke.html"
        rc = self._main(
            ["run", "smoke", "--instance", "mini", "--jobs", "1",
             "--report", str(report), "--no-ledger"]
        )
        assert rc == 0
        assert report.read_text().startswith("<!doctype html>")
        assert "smoke" in capsys.readouterr().out

    def test_unknown_set_is_a_usage_error(self, capsys):
        rc = self._main(["run", "nope", "--no-ledger"])
        assert rc == 2
        assert "unknown suite set" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        rc = self._main(["run", "smoke", "--frobnicate", "--no-ledger"])
        assert rc == 2

    def test_run_appends_ledger_record(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        rc = self._main(["run", "smoke", "--instance", "mini", "--jobs", "1"])
        assert rc == 0
        (ledger_file,) = [
            os.path.join(root, fn)
            for root, _, fns in os.walk(tmp_path)
            for fn in fns
            if fn.endswith(".jsonl")
        ]
        records = [
            json.loads(line)
            for line in open(ledger_file)
            if line.strip()
        ]
        record = records[-1]
        assert record["kind"] == "suite.set"
        assert record["config_digest"]
        assert record["bench"]["set"] == "smoke"
        assert record["bench"]["failed"] == 0
        assert len(record["bench"]["rows"]) == len(SETS["smoke"].members)

    def test_list_sets(self, capsys):
        rc = self._main(["list", "--sets"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("paper", "polybench", "ai", "smoke", "all"):
            assert name in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus"],
            ["list", "--bogus"],
            ["run", "smoke", "--jobs", "0", "--no-ledger"],
            ["run", "smoke", "--line", "-128", "--no-ledger"],
        ],
        ids=" ".join,
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        rc = self._main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
