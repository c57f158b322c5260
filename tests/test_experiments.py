"""Integration tests for the experiment harness.

Each test runs an experiment at a quick scale and asserts the *shape*
claims the paper makes (who wins, by roughly what factor, where the
crossovers are) — not absolute numbers.
"""

import pytest

from repro.experiments import (
    figure2_matmul,
    figure3_adi,
    figure7_cholesky,
    figures8_9,
    table1_erlebacher,
    table2_stats,
    table3_perf,
    table4_analytic,
    table4_hitrates,
    table5_access,
)
from repro.experiments.common import MACHINE2


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return figure2_matmul.run(sizes=(16, 48), machines={"i860": MACHINE2})

    def test_model_ranking_is_papers(self, result):
        assert result.model_ranking == ("JKI", "KJI", "JIK", "IJK", "KIJ", "IKJ")

    def test_simulation_agrees_when_data_exceeds_cache(self, result):
        ranking = result.simulated_rankings[("i860", 48)]
        assert ranking[0] == "JKI"
        assert ranking[-1] in ("IKJ", "KIJ")

    def test_small_data_shows_no_spread(self, result):
        # 16x16 arrays fit in the 8KB cache: all orders tie (the paper's
        # small-data-set effect).
        assert result.spread("i860", 16) < 1.05

    def test_larger_matrices_widen_the_gap(self, result):
        assert result.spread("i860", 48) > result.spread("i860", 16)

    def test_render(self, result):
        text = figure2_matmul.render(result)
        assert "JKI" in text and "i860" in text

    @pytest.mark.slow
    def test_simulation_reproduces_model_ranking_at_96(self):
        result = figure2_matmul.run(sizes=(96,), machines={"i860": MACHINE2})
        assert result.simulated_rankings[("i860", 96)] == result.model_ranking


class TestFigure3:
    def test_paper_cost_progression(self):
        result = figure3_adi.run(cls=4)
        # 5n^2 -> 3n^2 -> 3/4 n^2 (up to the exact N-1 outer trip).
        assert result.fusion_profitable
        assert result.interchange_profitable
        ratio = result.unfused_total_k.magnitude() / result.fused_cost_k.magnitude()
        assert ratio == pytest.approx(5 / 3, rel=1e-6)
        ratio_i = result.fused_cost_k.magnitude() / result.fused_cost_i.magnitude()
        assert ratio_i == pytest.approx(4.0, rel=1e-6)


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7_cholesky.run(n=64)

    def test_model_ranking_matches_paper(self, result):
        assert result.model_ranking == ("KJI", "JKI", "KIJ", "IKJ", "JIK", "IJK")

    def test_compound_attains_best_structure(self, result):
        assert result.compound_matches_best

    def test_i_inner_forms_win(self, result):
        best_two = set(result.simulated_ranking[:2])
        assert best_two <= {"KJI", "JKI"}

    def test_simulation_reproduces_model_ranking_at_96(self):
        result = figure7_cholesky.run(n=96)
        assert result.simulated_ranking == result.model_ranking


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1_erlebacher.run(n=16, machines={"i860": MACHINE2})

    def test_fused_is_best(self, result):
        assert result.fused_always_best

    def test_fusion_speedup_meaningful(self, result):
        # Paper: up to 17% on real hardware; our simulated caches show at
        # least a few percent.
        assert result.fusion_speedup("i860") > 1.02

    def test_fused_is_best_on_every_machine(self):
        assert table1_erlebacher.run(n=24).fused_always_best


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_stats.run(n=12)

    def test_majority_in_memory_order_after_transform(self, result):
        totals = result.totals
        assert totals["MO-Orig%"] + totals["MO-Perm%"] >= 80

    def test_some_programs_fail(self, result):
        assert totals_fail(result) > 0

    def test_fusion_and_distribution_used(self, result):
        totals = result.totals
        assert totals["Fus-A"] >= 5
        assert totals["Dist-D"] >= 2

    def test_many_programs_improved(self, result):
        assert len(result.improved_programs) >= 10


def totals_fail(result):
    return result.totals["MO-Fail%"]


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_perf.run(scale=1.0)

    def test_flagship_programs_improve(self, result):
        assert result.row("arc2d_like").speedup > 1.3
        assert result.row("adi").speedup > 1.5

    def test_no_significant_degradations(self, result):
        assert not result.degraded  # no program slows by more than 2%

    def test_most_programs_improve(self, result):
        assert len(result.improved) >= 8

    def test_untouched_programs_unchanged(self, result):
        assert result.row("tomcatv_like").speedup == pytest.approx(1.0)
        assert result.row("trfd_like").speedup == pytest.approx(1.0)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4_hitrates.run(
            scale=1.0,
            names=("arc2d_like", "jacobi", "tomcatv_like", "vpenta_like"),
        )

    def test_small_cache_shows_bigger_deltas(self, result):
        row = result.row("arc2d_like")
        assert row.whole_delta("cache2") > row.whole_delta("cache1") - 1e-9
        assert row.whole_delta("cache2") > 0.01

    def test_big_cache_hit_rates_already_high(self, result):
        for row in result.rows:
            assert row.whole[("cache1", "orig")] > 0.95

    def test_unchanged_program_rates_stable(self, result):
        row = result.row("tomcatv_like")
        assert row.whole_delta("cache1") == pytest.approx(0.0, abs=1e-9)
        assert row.whole_delta("cache2") == pytest.approx(0.0, abs=1e-9)

    def test_optimized_statements_improve_more(self, result):
        row = result.row("vpenta_like")
        assert row.opt_delta("cache2") >= row.whole_delta("cache2") - 0.05

    @pytest.mark.slow
    def test_small_cache_shows_more_improved_programs(self):
        # The paper's headline over the whole suite: the big cache is
        # nearly saturated while the small cache shows the improvements.
        result = table4_hitrates.run(scale=1.0)
        assert len(result.improved_whole("cache2")) > len(
            result.improved_whole("cache1")
        )


class TestTable4Analytic:
    @pytest.fixture(scope="class")
    def result(self, table4_analytic_result):
        # Shared with the golden-snapshot test (tests/conftest.py).
        return table4_analytic_result

    def test_rows_cover_both_versions(self, result):
        assert {(r.name, r.version) for r in result.rows} == {
            (name, version)
            for name in ("jacobi", "matmul", "transpose")
            for version in ("orig", "final")
        }

    def test_prediction_close_to_simulation(self, result):
        assert result.worst_error() <= 0.02

    def test_render_includes_error_columns(self, result):
        text = table4_analytic.render(result)
        assert "fa1 err" in text and "fa2 err" in text
        assert "worst error" in text


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return table5_access.run(n=12)

    def test_unit_stride_share_grows(self, result):
        for panel in result.panels:
            assert panel.unit_share_gain >= 0
        assert result.panel("vpenta_like").unit_share_gain > 50

    def test_all_programs_panel_matches_paper_shape(self, result):
        panel = result.panel("all programs")
        # Most groups exhibit self-spatial reuse after transformation;
        # 'none' shrinks (paper: 60% -> 53% none on real suite; our
        # synthetic suite is more transformable).
        assert panel.final.row["None%"] < panel.original.row["None%"]
        assert panel.final.row["Unit%"] > panel.original.row["Unit%"]


class TestFigures89:
    @pytest.fixture(scope="class")
    def result(self):
        return figures8_9.run(n=12)

    def test_transformed_mass_moves_to_top_bucket(self, result):
        before = result.share_at_least(result.nests_original, 80)
        after = result.share_at_least(result.nests_transformed, 80)
        assert after > before
        assert after > 0.5

    def test_inner_loops_move_harder(self, result):
        after = result.share_at_least(result.inner_transformed, 90)
        assert after > 0.5


class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [["table1", "--frobnicate"], ["nope"], ["figure2", "--jobs", "0"]],
        ids=" ".join,
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        from repro.experiments.__main__ import main

        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
