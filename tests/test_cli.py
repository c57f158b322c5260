"""Tests for the command-line translator (python -m repro)."""

import subprocess
import sys

import pytest

MATMUL = """
PROGRAM demo
PARAMETER N = 16
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.f"
    path.write_text(MATMUL)
    return str(path)


class TestCLI:
    def test_transforms_to_memory_order(self, source_file):
        proc = run_cli(source_file)
        assert proc.returncode == 0
        lines = [l.strip() for l in proc.stdout.splitlines()]
        do_lines = [l for l in lines if l.startswith("DO")]
        assert do_lines[0].startswith("DO J")
        assert do_lines[-1].startswith("DO I")

    def test_report(self, source_file):
        proc = run_cli(source_file, "--report")
        assert proc.returncode == 0
        assert "memory order perm" in proc.stderr

    def test_simulate(self, source_file):
        proc = run_cli(source_file, "--simulate")
        assert proc.returncode == 0
        assert "speedup" in proc.stderr

    def test_scalar_replace(self, source_file):
        proc = run_cli(source_file, "--scalar-replace", "--report")
        assert proc.returncode == 0
        assert "T_B = B(K, J)" in proc.stdout
        assert "1 refs promoted" in proc.stderr

    def test_output_file(self, source_file, tmp_path):
        out = tmp_path / "out.f"
        proc = run_cli(source_file, "-o", str(out))
        assert proc.returncode == 0
        assert "DO J" in out.read_text()

    def test_output_reparses(self, source_file, tmp_path):
        from repro.frontend import parse_program

        out = tmp_path / "out.f"
        run_cli(source_file, "-o", str(out))
        program = parse_program(out.read_text())
        assert program.name == "demo"

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.f"
        bad.write_text("PROGRAM x\nDO I = 1, 4\nEND")
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("/nonexistent/file.f")
        assert proc.returncode == 1

    def test_bad_cache_name(self, source_file):
        proc = run_cli(source_file, "--cache", "bogus")
        assert proc.returncode == 2

    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "Usage" in proc.stdout


class TestObservabilityCLI:
    def test_version(self):
        from repro import __version__

        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"repro {__version__}"

    def test_bad_cls_exits_cleanly(self, source_file):
        proc = run_cli(source_file, "--cls", "abc")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "argument --cls: expects an integer" in proc.stderr

    def test_explain_emits_remarks(self, source_file):
        proc = run_cli(source_file, "--explain")
        assert proc.returncode == 0
        assert "--- optimization remarks ---" in proc.stderr
        assert "permute:applied" in proc.stderr
        assert "compound:" in proc.stderr

    def test_explain_output_stable(self, source_file):
        first = run_cli(source_file, "--explain")
        second = run_cli(source_file, "--explain")
        assert first.returncode == second.returncode == 0
        assert first.stderr == second.stderr
        assert first.stdout == second.stdout

    def test_metrics_section(self, source_file):
        proc = run_cli(source_file, "--metrics")
        assert proc.returncode == 0
        assert "--- metrics ---" in proc.stderr
        assert "dep.pairs" in proc.stderr
        assert "permute.applied" in proc.stderr

    def test_metrics_with_simulate_reports_cache(self, source_file):
        proc = run_cli(source_file, "--simulate", "--metrics")
        assert proc.returncode == 0
        assert "cache.accesses" in proc.stderr
        assert "cache.misses" in proc.stderr

    def test_trace_writes_valid_jsonl(self, source_file, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        proc = run_cli(source_file, "--trace", str(trace))
        assert proc.returncode == 0
        assert "trace records" in proc.stderr
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert records[0]["type"] == "meta"
        kinds = {record["type"] for record in records}
        assert {"meta", "span", "remark", "counter"} <= kinds

    def test_trace_round_trips_through_reader(self, source_file, tmp_path):
        from repro.obs import read_jsonl

        trace = tmp_path / "trace.jsonl"
        run_cli(source_file, "--trace", str(trace))
        data = read_jsonl(str(trace))
        assert any(remark.pass_name == "permute" for remark in data.remarks)
        assert data.spans_by_name("compound")

    def test_no_obs_flags_no_obs_output(self, source_file):
        proc = run_cli(source_file)
        assert proc.returncode == 0
        assert "remarks" not in proc.stderr
        assert "metrics" not in proc.stderr


class TestVerifySubcommand:
    def test_small_fuzz_run_passes(self):
        proc = run_cli("verify", "--fuzz", "3", "--seed", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "3 cases (seed 0)" in proc.stdout
        assert "0 failures" in proc.stdout
        assert "cache cross-check" in proc.stdout

    def test_help(self):
        proc = run_cli("verify", "--help")
        assert proc.returncode == 0
        assert "--fuzz" in proc.stdout and "--shrink" in proc.stdout

    def test_unknown_argument_exits_2(self):
        proc = run_cli("verify", "--bogus")
        assert proc.returncode == 2

    def test_non_integer_fuzz_exits_2(self):
        proc = run_cli("verify", "--fuzz", "many")
        assert proc.returncode == 2

    def test_budget_env_raises_case_count(self):
        import os

        env = dict(os.environ, REPRO_FUZZ_BUDGET="5")
        proc = run_cli("verify", "--fuzz", "2", "--seed", "0", env=env)
        assert proc.returncode == 0
        assert "5 cases" in proc.stdout

    def test_metrics_flag_prints_counters(self):
        proc = run_cli("verify", "--fuzz", "2", "--seed", "0", "--metrics")
        assert proc.returncode == 0
        assert "verify.cases" in proc.stderr


class TestLocalitySubcommand:
    def test_prediction_summary(self, source_file):
        proc = run_cli("locality", source_file)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "accesses" in proc.stdout
        assert "predicted hit rate" in proc.stdout
        assert "reuse classes:" in proc.stdout

    def test_compare_reports_error_column(self, source_file):
        proc = run_cli(
            "locality", source_file, "--compare", "--line", "64",
            "--capacities", "32,512",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "traced" in proc.stdout and "err" in proc.stdout
        assert "32 lines" in proc.stdout and "512 lines" in proc.stdout

    def test_set_associative_row(self, source_file):
        proc = run_cli("locality", source_file, "--sets", "64", "--assoc", "4")
        assert proc.returncode == 0
        assert "64 sets x 4-way" in proc.stdout

    def test_help(self):
        proc = run_cli("locality", "--help")
        assert proc.returncode == 0
        assert "--compare" in proc.stdout and "--capacities" in proc.stdout

    def test_bad_line_size_exits_nonzero(self, source_file):
        proc = run_cli("locality", source_file, "--line", "48")
        assert proc.returncode != 0

    def test_seed_env_sets_verify_default(self):
        import os

        env = dict(os.environ, REPRO_SEED="3")
        proc = run_cli("verify", "--fuzz", "2", env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "seed 3" in proc.stdout


class TestPositiveSizes:
    """Every size, capacity, budget and worker-count option rejects zero
    and negative values as a usage error, as the HTTP protocol does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["FILE", "--cls", "0"],
            ["FILE", "--cls", "-3"],
            ["locality", "FILE", "--capacities", "0,-4"],
            ["locality", "FILE", "--capacities", "64,0"],
            ["locality", "FILE", "--line", "0"],
            ["locality", "FILE", "--sets", "0"],
            ["locality", "FILE", "--assoc", "-2"],
            ["lint", "FILE", "--line", "0"],
            ["lint", "FILE", "--capacity", "-512"],
            ["autotune", "FILE", "--budget", "0"],
            ["autotune", "FILE", "--beam", "0"],
            ["autotune", "FILE", "--topk", "0"],
            ["autotune", "FILE", "--jobs", "0"],
            ["autotune", "FILE", "--cls", "0"],
            ["autotune", "FILE", "--line", "-128"],
            ["autotune", "FILE", "--capacity", "0"],
            ["report", "--last", "0"],
            ["serve", "--jobs", "0"],
        ],
        ids=" ".join,
    )
    def test_non_positive_size_exits_2(self, argv, source_file, capsys):
        from repro.__main__ import main

        rc = main([source_file if arg == "FILE" else arg for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "must be positive" in err
        assert "Traceback" not in err


#: The options each command accepted before the move to argparse,
#: without -h/--help: argparse adds those to every parser except the
#: translator's, whose help (the module docstring) is printed before
#: parsing.
OPTION_SURFACE = {
    "repro": [
        "--cache", "--chrome-trace", "--cls", "--explain", "--metrics",
        "--no-ledger", "--profile", "--report", "--scalar-replace",
        "--simulate", "--trace", "--version", "-o",
    ],
    "verify": ["--explain", "--fuzz", "--metrics", "--seed", "--shrink"],
    "locality": [
        "--assoc", "--capacities", "--compare", "--explain", "--line", "--sets",
    ],
    "lint": [
        "--capacity", "--checks", "--explain", "--fix", "--format", "--line",
        "--metrics", "--no-ledger", "--no-verify", "--sarif", "-o",
    ],
    "autotune": [
        "--beam", "--budget", "--capacity", "--cls", "--compare-sim",
        "--explain", "--jobs", "--line", "--metrics", "--no-ledger",
        "--no-verify", "--topk", "-o",
    ],
    "report": ["--format", "--last", "--ledger", "-o"],
    "serve": ["--host", "--jobs", "--port"],
    "repro.experiments": [
        "--chrome-trace", "--full", "--jobs", "--no-ledger", "--profile",
        "--save", "--trace",
    ],
    "repro.suite list": ["--no-ledger", "--sets", "--time"],
    "repro.suite run": [
        "--capacity", "--format", "--instance", "--jobs", "--line",
        "--no-ledger", "--report",
    ],
}


def _command_parser(command):
    from repro import __main__ as repro_main
    from repro.experiments import __main__ as experiments_main
    from repro.suite import __main__ as suite_main

    if command == "repro":
        return repro_main.translate_parser()
    if command == "repro.experiments":
        return experiments_main.build_parser()
    if command.startswith("repro.suite "):
        return suite_main.SUBCOMMANDS[command.split()[1]][0]()
    return repro_main.SUBCOMMANDS[command][0]()


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
    def test_options_match_the_hand_parsers(self, command):
        parser = _command_parser(command)
        assert not parser.allow_abbrev
        options = {
            option
            for action in parser._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert sorted(options) == sorted(OPTION_SURFACE[command])

    def test_abbreviated_flag_exits_2(self, source_file):
        proc = run_cli(source_file, "--sim")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
