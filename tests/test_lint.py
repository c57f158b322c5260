"""Unit tests for repro.lint: checks, engine policy, renderers, SARIF."""

import json

import pytest

from repro.frontend import parse_program
from repro.lint import (
    ERROR,
    NOTE,
    WARNING,
    Diagnostic,
    FixIt,
    checks_for,
    lint_program,
    registered_checks,
    render_json,
    render_text,
    sarif_log,
)
from repro.lint.engine import _verify_and_score
from repro.lint.registry import LintContext
from repro.suite import kernels
from repro.transforms.recipe import Recipe


def source(body: str, arrays: str = "A(N,N), B(N,N), C(N,N)") -> str:
    return f"PROGRAM t\nPARAMETER N = 8\nREAL {arrays}\n{body}\nEND\n"


def ids(diags, check_id):
    return [d for d in diags if d.check_id == check_id]


class TestChecks:
    def test_stride_flags_pessimal_matmul(self):
        result = lint_program(kernels.matmul(8, "KIJ"), verify=False)
        stride = ids(result.diagnostics, "LOC001")
        assert {d.array for d in stride} == {"B", "C"}
        assert all(d.severity == WARNING for d in stride)

    def test_stride_quiet_on_memory_order(self):
        result = lint_program(kernels.matmul(8, "JKI"), verify=False)
        assert not ids(result.diagnostics, "LOC001")

    def test_loop_order_offers_permute_fixit(self):
        result = lint_program(kernels.matmul(8, "KIJ"), verify=False)
        order = ids(result.diagnostics, "LOC002")
        assert len(order) == 1
        fixit = order[0].fixit
        assert fixit is not None and fixit.transform == "permute"
        assert "J.K.I" in order[0].message

    def test_loop_order_quiet_in_memory_order(self):
        result = lint_program(kernels.matmul(8, "JKI"), verify=False)
        assert not ids(result.diagnostics, "LOC002")

    def test_fusion_candidate_gets_fixit(self):
        program = parse_program(source(
            "DO I = 1, N\n  A(I,1) = B(I,1) + 1\nENDDO\n"
            "DO I = 1, N\n  C(I,1) = A(I,1) * 2\nENDDO"
        ))
        result = lint_program(program, verify=False)
        fusion = ids(result.diagnostics, "LOC003")
        assert len(fusion) == 1
        assert fusion[0].fixit is not None
        assert fusion[0].fixit.transform == "fuse"

    def test_fusion_blocked_is_note(self):
        program = parse_program(source(
            "DO I = 2, N\n  B(I,1) = A(I-1,1)\nENDDO\n"
            "DO I = 2, N\n  A(I,1) = B(I,1)\nENDDO",
        ))
        result = lint_program(program, verify=False)
        fusion = ids(result.diagnostics, "LOC003")
        assert len(fusion) == 1
        assert fusion[0].severity == NOTE
        assert fusion[0].fixit is None
        assert "fusion-preventing" in fusion[0].message

    def test_race_reports_offending_pair(self):
        program = parse_program(source(
            "DO I = 2, N\n  DO J = 1, N\n    A(I,J) = A(I-1,J)\n  ENDDO\nENDDO"
        ))
        result = lint_program(program, verify=False)
        race = ids(result.diagnostics, "LOC004")
        assert len(race) == 1
        diag = race[0]
        assert diag.severity == NOTE
        assert diag.array == "A"
        assert "blocks DOALL" in diag.message
        assert "A(I, J)" in diag.message  # the offending dependence pair
        assert diag.data["parallel_loops"] == ["J"]

    def test_race_quiet_on_independent_nest(self):
        result = lint_program(kernels.transpose(8), verify=False)
        assert not ids(result.diagnostics, "LOC004")

    def test_scalar_replace_flags_invariant_ref(self):
        result = lint_program(kernels.matmul(8, "KIJ"), verify=False)
        scalar = ids(result.diagnostics, "LOC005")
        assert len(scalar) == 1
        assert scalar[0].array == "A"
        assert scalar[0].fixit is not None
        assert scalar[0].fixit.transform == "scalar-replace"

    def test_alias_hazard_from_gcd_lattice(self):
        program = parse_program(source(
            "DO I = 1, N\n  A(2*I, 1) = A(4*I, 1) + 1\nENDDO",
            arrays="A(64,64)",
        ))
        result = lint_program(program, verify=False)
        alias = ids(result.diagnostics, "LOC006")
        assert len(alias) == 1
        assert "may alias" in alias[0].message

    def test_alias_quiet_on_uniform_refs(self):
        # A(I,J) vs A(I-1,J): constant distance, provably no hazard.
        program = parse_program(source(
            "DO I = 2, N\n  DO J = 1, N\n    A(I,J) = A(I-1,J)\n  ENDDO\nENDDO"
        ))
        result = lint_program(program, verify=False)
        assert not ids(result.diagnostics, "LOC006")


class TestEngine:
    def test_verified_fixit_attached_with_scores(self):
        result = lint_program(kernels.matmul(8, "KIJ"), line=64, capacity=16)
        order = ids(result.diagnostics, "LOC002")[0]
        fixit = order.fixit
        assert fixit is not None
        assert fixit.verified
        assert fixit.verification == "oracle"
        assert fixit.miss_after < fixit.miss_before

    def test_failed_verification_escalates_to_error(self):
        # Hand the engine a fix-it whose program computes something else:
        # the oracle must reject it and the diagnostic must escalate.
        program = parse_program(source("DO I = 1, N\n  A(I,1) = B(I,1)\nENDDO"))
        wrong = parse_program(source("DO I = 1, N\n  A(I,1) = B(I,1) + 1\nENDDO"))
        ctx = LintContext(program, line=64, capacity=16)
        diag = Diagnostic(
            "LOC002", "loop-order", WARNING, "synthetic",
            fixit=FixIt("permute", "bogus rewrite", wrong, Recipe()),
        )
        out = _verify_and_score(ctx, diag, 0.5, 100)
        assert out.severity == ERROR
        assert "fix-it failed verification" in out.message
        assert out.fixit is not None and not out.fixit.verified
        assert out.fixit.verification.startswith("state-mismatch")

    def test_regressing_fixit_is_withheld(self):
        # A "repair" that permutes a memory-ordered matmul into KIJ is
        # equivalent but predicted to miss more: the engine must withhold.
        good = kernels.matmul(8, "JKI")
        bad = kernels.matmul(8, "KIJ")
        ctx = LintContext(good, line=64, capacity=16)
        diag = Diagnostic(
            "LOC002", "loop-order", WARNING, "synthetic",
            fixit=FixIt("permute", "pessimizing rewrite", bad, Recipe()),
        )
        from repro.lint.verifyfix import predicted_misses

        misses, accesses = predicted_misses(good, 64, 16)
        out = _verify_and_score(ctx, diag, misses / accesses, accesses)
        assert out.fixit is None
        assert out.data["fixit_withheld"] == "no-predicted-payoff"
        assert out.severity == WARNING

    def test_ranking_severity_then_payoff(self):
        result = lint_program(kernels.matmul(8, "KIJ"), line=64, capacity=16)
        ranks = [d.severity for d in result.diagnostics]
        assert ranks == sorted(ranks, key=lambda s: {"error": 0, "warning": 1, "note": 2}[s])
        warnings = [d for d in result.diagnostics if d.severity == WARNING]
        payoffs = [d.payoff for d in warnings]
        assert payoffs == sorted(payoffs, reverse=True)

    def test_counts_and_errors(self):
        result = lint_program(kernels.matmul(8, "KIJ"), verify=False)
        counts = result.counts()
        assert counts["warning"] >= 3
        assert result.errors == counts["error"] == 0

    def test_check_selection_by_id_and_name(self):
        program = kernels.matmul(8, "KIJ")
        by_id = lint_program(program, checks=("LOC001",), verify=False)
        by_name = lint_program(program, checks=("stride",), verify=False)
        assert by_id.checks_run == by_name.checks_run == ("LOC001",)
        assert {d.check_id for d in by_id.diagnostics} == {"LOC001"}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown lint check"):
            checks_for(("LOC999",))

    def test_registry_has_six_checks(self):
        assert sorted(registered_checks()) == [
            "LOC001", "LOC002", "LOC003", "LOC004", "LOC005", "LOC006",
        ]


class TestRenderers:
    def test_text_report_shape(self):
        result = lint_program(kernels.matmul(8, "KIJ"), line=64, capacity=16)
        text = render_text(result, path="k.f")
        assert "k.f" in text
        assert "[loop-order]" in text
        assert "fix-it (permute, verified)" in text
        assert "diagnostic(s)" in text.splitlines()[-1]

    def test_json_report_roundtrips(self):
        result = lint_program(kernels.matmul(8, "KIJ"), verify=False)
        payload = json.loads(render_json(result, path="k.f"))
        assert payload["path"] == "k.f"
        assert payload["counts"]["warning"] >= 3
        assert all("check_id" in d for d in payload["diagnostics"])

    def test_sarif_log_structure(self):
        result = lint_program(kernels.matmul(8, "KIJ"), line=64, capacity=16)
        log = sarif_log([(result, "k.f")])
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(registered_checks())
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] in ("error", "warning", "note")
            uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            assert uri == "k.f"

    def test_sarif_span_regions(self):
        program = parse_program(source("DO I = 1, N\n  A(I,1) = B(1,I)\nENDDO"))
        result = lint_program(program, verify=False)
        log = sarif_log([(result, "t.f")])
        regions = [
            r["locations"][0]["physicalLocation"].get("region")
            for r in log["runs"][0]["results"]
        ]
        assert any(r and r["startLine"] >= 4 for r in regions)
