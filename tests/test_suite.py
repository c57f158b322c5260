"""Tests over the benchmark suite: kernels and application stand-ins."""

import numpy as np
import pytest

from repro.exec import Interpreter
from repro.model import CostModel
from repro.stats import collect_program_stats
from repro.suite import (
    CHOLESKY_FORMS,
    MATMUL_ORDERS,
    adi,
    cholesky,
    erlebacher,
    get_set,
    matmul,
    spd_init,
)
from repro.transforms import compound


class TestKernels:
    @pytest.mark.parametrize("order", MATMUL_ORDERS)
    def test_matmul_orders_equivalent(self, order):
        reference = Interpreter(matmul(8, "IJK"))
        expected = reference.arrays["C"] + reference.arrays["A"] @ reference.arrays["B"]
        interp = Interpreter(matmul(8, order))
        interp.run()
        np.testing.assert_allclose(interp.arrays["C"], expected, rtol=1e-12)

    @pytest.mark.parametrize("form", CHOLESKY_FORMS)
    def test_cholesky_forms_equivalent(self, form):
        ref = Interpreter(cholesky(8, "KIJ"), init=spd_init)
        ref.run()
        interp = Interpreter(cholesky(8, form), init=spd_init)
        interp.run()
        np.testing.assert_allclose(
            np.tril(interp.arrays["A"]), np.tril(ref.arrays["A"]), rtol=1e-10
        )

    def test_cholesky_is_a_factorization(self):
        interp = Interpreter(cholesky(8, "KIJ"), init=spd_init)
        interp.run()
        factor = np.tril(interp.arrays["A"])
        np.testing.assert_allclose(factor @ factor.T, spd_init("A", (8, 8)), rtol=1e-9)

    @pytest.mark.parametrize("form", ["distributed", "fused", "interchanged"])
    def test_adi_forms_equivalent(self, form):
        ref = Interpreter(adi(8, "distributed"))
        ref.run()
        interp = Interpreter(adi(8, form))
        interp.run()
        for array in ("X", "B"):
            np.testing.assert_allclose(
                interp.arrays[array], ref.arrays[array], rtol=1e-12
            )

    def test_erlebacher_forms_equivalent(self):
        ref = Interpreter(erlebacher(5, "hand"))
        ref.run()
        other = Interpreter(erlebacher(5, "distributed"))
        other.run()
        np.testing.assert_allclose(other.arrays["UX"], ref.arrays["UX"], rtol=1e-12)


# The paper set: the 42 pre-registry entries. The shape thresholds below
# mirror the paper's headline statistics over exactly this population;
# polybench/ai additions are covered by tests/test_suite_conformance.py.
ALL_ENTRIES = get_set("paper").entries()


class TestSuitePrograms:
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=[e.name for e in ALL_ENTRIES])
    def test_builds_and_runs(self, entry):
        prog = entry.program(8)
        interp = Interpreter(prog, init=entry.init)
        interp.run()
        assert interp.statements_executed > 0

    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=[e.name for e in ALL_ENTRIES])
    def test_compound_preserves_semantics(self, entry):
        prog = entry.program(10)
        outcome = compound(prog, CostModel(cls=4))
        before = Interpreter(prog, init=entry.init)
        before.run()
        after = Interpreter(outcome.program, init=entry.init)
        after.run()
        for array in before.arrays:
            np.testing.assert_allclose(
                before.arrays[array],
                after.arrays[array],
                rtol=1e-10,
                err_msg=f"{entry.name}: {array} changed",
            )

    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=[e.name for e in ALL_ENTRIES])
    def test_stats_invariants(self, entry):
        prog = entry.program(10)
        stats, _ = collect_program_stats(prog, CostModel(cls=4))
        assert (
            stats.memory_order_orig
            + stats.memory_order_perm
            + stats.memory_order_fail
            == stats.nests
        )
        assert stats.nests_fused <= stats.fusion_candidates
        assert stats.cost_ratio_final >= 0.99  # never makes locality worse
        assert stats.cost_ratio_ideal >= stats.cost_ratio_final - 0.01


class TestSuiteShape:
    """The suite as a whole mirrors the paper's headline statistics."""

    def test_majority_originally_in_memory_order(self):
        # Paper: 69% of nests originally in memory order; our mix should
        # also have a healthy majority (over half).
        model = CostModel(cls=4)
        orig = total = 0
        for entry in ALL_ENTRIES:
            stats, _ = collect_program_stats(entry.program(10), model)
            orig += stats.memory_order_orig
            total += stats.nests
        assert total > 25
        assert orig / total > 0.4

    def test_transformation_helps_many_programs(self):
        model = CostModel(cls=4)
        improved = sum(
            1
            for entry in ALL_ENTRIES
            if collect_program_stats(entry.program(10), model)[0].cost_ratio_final
            > 1.2
        )
        # Paper: locality improved in 66% of programs.
        assert improved >= len(ALL_ENTRIES) // 3

    def test_some_programs_blocked_by_dependences(self):
        model = CostModel(cls=4)
        blocked = [
            entry.name
            for entry in ALL_ENTRIES
            if collect_program_stats(entry.program(10), model)[0].memory_order_fail
            > 0
        ]
        assert "trfd_like" in blocked
