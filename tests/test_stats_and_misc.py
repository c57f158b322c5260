"""Unit tests for the stats collectors, report rendering, registry,
errors hierarchy, and small IR utilities."""

import pytest

from repro.errors import (
    DependenceError,
    ExecutionError,
    IRError,
    NonAffineError,
    ParseError,
    ReproError,
    TransformError,
)
from repro.frontend import parse_program
from repro.ir.visit import fresh_name, map_statements, rename_loops
from repro.model import CostModel
from repro.stats import (
    collect_access_properties,
    collect_program_stats,
    render_histogram,
    render_table,
)
from repro.suite import get_entry, suite_entries


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            IRError,
            NonAffineError,
            ParseError,
            DependenceError,
            TransformError,
            ExecutionError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(NonAffineError, IRError)

    def test_parse_error_position(self):
        err = ParseError("bad token", line=3, column=7)
        assert "3:7" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_position(self):
        assert str(ParseError("oops")) == "oops"


class TestRenderTable:
    def test_alignment(self):
        text = render_table(
            [{"A": 1, "B": "xy"}, {"A": 222, "B": "z"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("A")
        assert "222" in lines[-1]

    def test_float_formatting(self):
        text = render_table([{"x": 1.23456}])
        assert "1.23" in text

    def test_empty(self):
        assert "(no rows)" in render_table([], title="T")

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestRenderHistogram:
    def test_bars_scale(self):
        text = render_histogram({"low": 1, "high": 10}, width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 1

    def test_empty_buckets(self):
        text = render_histogram({"a": 0, "b": 0})
        assert "#" not in text


class TestRegistry:
    def test_lookup(self):
        entry = get_entry("matmul")
        assert entry.category == "kernel"
        assert entry.program(8).param_env["N"] == 8

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_entry("nope")

    def test_category_filter(self):
        perfect = suite_entries(categories=("perfect",))
        assert perfect
        assert all(e.category == "perfect" for e in perfect)

    def test_suite_size_near_papers(self):
        # Paper evaluated 35 programs; our registry carries 38.
        assert len(suite_entries()) >= 35

    def test_default_program_builds(self):
        for entry in suite_entries()[:5]:
            assert entry.program().statements


class TestVisitUtilities:
    def test_fresh_name(self):
        assert fresh_name("I", set()) == "I"
        assert fresh_name("I", {"I"}) == "I_2"
        assert fresh_name("I", {"I", "I_2"}) == "I_3"

    def test_rename_loops_renames_bounds_and_subscripts(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 4
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, I
                A(J,I) = A(J,I) + I * 1.0
              ENDDO
            ENDDO
            END
            """
        )
        renamed = rename_loops(prog.top_loops[0], {"I": "Z"})
        assert renamed.var == "Z"
        inner = renamed.body[0]
        assert str(inner.ub) == "Z"
        stmt = renamed.statements[0]
        assert str(stmt.lhs) == "A(J, Z)"
        assert "Z" in str(stmt.rhs)

    def test_map_statements(self):
        prog = parse_program(
            "PROGRAM p\nREAL A(4)\nDO I = 1, 4\nA(I) = 1.0\nENDDO\nEND"
        )
        bumped = map_statements(
            prog.top_loops[0], lambda s: s.with_sid(s.sid + 100)
        )
        assert bumped.statements[0].sid == 100


class TestStatsCollectors:
    def test_pct_empty_nests(self):
        prog = parse_program("PROGRAM p\nREAL A(4)\nX = 1.0\nEND")
        stats, _ = collect_program_stats(prog, CostModel())
        assert stats.nests == 0
        assert stats.pct(0) == 0

    def test_access_properties_shape(self):
        prog = get_entry("matmul").program(8)
        props = collect_access_properties(prog, CostModel(cls=4))
        row = props.row
        assert row["Inv%"] + row["Unit%"] + row["None%"] in (99, 100, 101)
        assert props.total_groups == 3

    def test_row_keys_stable(self):
        stats, _ = collect_program_stats(
            get_entry("jacobi").program(8), CostModel(cls=4)
        )
        assert set(stats.row) >= {
            "Program",
            "Nests",
            "MO-Orig%",
            "Fus-C",
            "Dist-D",
            "Ratio-Final",
            "Ratio-Ideal",
        }
