"""Tests for the brute-force dependence oracle (repro.verify.depforce).

Includes the regression for the read-before-write slot ordering bug: the
oracle must locate the write slot by consulting ``Assign.lhs`` (object
identity), not by assuming the write occupies slot 0 of ``refs``, and it
must fire reads before the write within one statement instance.
"""

from types import SimpleNamespace

import pytest

from repro.dependence import region_dependences
from repro.frontend import parse_program
from repro.suite import get_entry, get_set
from repro.verify.depforce import (
    Access,
    analysis_covers,
    brute_force_dependences,
    enumerate_accesses,
    _ordered_slots,
)


def _program(text):
    return parse_program(text)


class TestOrderedSlots:
    def test_write_slot_found_by_lhs_identity(self):
        program = _program(
            """
PROGRAM P
REAL A(10)
DO I = 1, 5
  A(I) = A(I) + 1
ENDDO
END
"""
        )
        stmt = program.body[0].body[0]
        order = _ordered_slots(stmt)
        # The write fires last; it is the slot holding the lhs object.
        slots = [slot for slot, _ in order]
        flags = [is_write for _, is_write in order]
        assert flags == [False, True]
        assert stmt.refs[slots[-1]] is stmt.lhs

    def test_write_not_assumed_at_slot_zero(self):
        # A node whose refs tuple puts the write LAST: a slot-0 assumption
        # would misclassify the read as the write.
        program = _program(
            """
PROGRAM P
REAL A(10)
DO I = 1, 5
  A(I) = A(I) + 1
ENDDO
END
"""
        )
        stmt = program.body[0].body[0]
        reordered = SimpleNamespace(
            lhs=stmt.lhs, refs=tuple(reversed(stmt.refs)), sid=stmt.sid
        )
        order = _ordered_slots(reordered)
        write_slots = [slot for slot, is_write in order if is_write]
        assert len(write_slots) == 1
        assert reordered.refs[write_slots[0]] is reordered.lhs
        # And the write still fires last.
        assert order[-1][1] is True


class TestReadBeforeWrite:
    def test_self_update_is_anti_not_flow(self):
        # A(I) = A(I) + 1: within one instance the read precedes the
        # write, so each location carries an anti dependence at distance
        # 0 (read slot 1 -> write slot 0) and NO same-instance flow.
        program = _program(
            """
PROGRAM P
REAL A(10)
DO I = 1, 5
  A(I) = A(I) + 1
ENDDO
END
"""
        )
        stmt = program.body[0].body[0]
        exact = brute_force_dependences(program, program.param_env)
        assert (stmt.sid, 1, stmt.sid, 0, (0,)) in exact  # anti, read->write
        assert (stmt.sid, 0, stmt.sid, 1, (0,)) not in exact  # no flow to self

    def test_recurrence_flow_distance_one(self):
        program = _program(
            """
PROGRAM P
REAL A(10)
DO I = 1, 5
  A(I+1) = A(I)
ENDDO
END
"""
        )
        stmt = program.body[0].body[0]
        exact = brute_force_dependences(program, program.param_env)
        assert (stmt.sid, 0, stmt.sid, 1, (1,)) in exact  # flow, dist 1

    def test_rhs_references_lhs_array_covered_by_analysis(self):
        # Regression driver for the satellite fix: the analysis must
        # cover the oracle on a statement whose RHS reads the LHS array.
        program = _program(
            """
PROGRAM P
REAL A(12)
DO I = 2, 10
  A(I) = A(I-1) + A(I+1)
ENDDO
END
"""
        )
        deps = region_dependences(program, include_inputs=True)
        exact = brute_force_dependences(
            program, program.param_env, include_inputs=True
        )
        assert analysis_covers(deps, exact) == []


class TestSiblingNests:
    SIBLINGS = """
PROGRAM P
REAL A(8), B(8)
DO I = 1, 4
  A(I) = 2
ENDDO
DO I = 1, 4
  B(I) = A(I)
ENDDO
END
"""

    def test_sibling_nests_share_no_loops(self):
        # Both nests use I, but the loops are different objects: the
        # cross-nest flow dependence has an EMPTY distance vector, not a
        # (0,) one a name-based match would produce.
        program = _program(self.SIBLINGS)
        s1 = program.body[0].body[0]
        s2 = program.body[1].body[0]
        exact = brute_force_dependences(program, program.param_env)
        assert (s1.sid, 0, s2.sid, 1, ()) in exact
        assert all(
            not (src == s1.sid and snk == s2.sid and dist == (0,))
            for src, _, snk, _, dist in exact
        )

    def test_sibling_nests_covered_by_analysis(self):
        program = _program(self.SIBLINGS)
        deps = region_dependences(program, include_inputs=True)
        exact = brute_force_dependences(
            program, program.param_env, include_inputs=True
        )
        assert analysis_covers(deps, exact) == []


class TestEnumerateAccesses:
    def test_execution_order_and_clock(self):
        program = _program(
            """
PROGRAM P
REAL A(4), B(4)
DO I = 1, 2
  A(I) = B(I)
ENDDO
END
"""
        )
        accesses = enumerate_accesses(program, program.param_env)
        times = [acc.time for _, _, acc in accesses]
        assert times == sorted(times)
        # Per iteration: read B(I) then write A(I).
        arrays = [array for array, _, _ in accesses]
        assert arrays == ["B", "A", "B", "A"]
        assert isinstance(accesses[0][2], Access)

    def test_negative_step_iterates_downward(self):
        program = _program(
            """
PROGRAM P
REAL A(6)
DO I = 5, 1, -1
  A(I) = 1
ENDDO
END
"""
        )
        accesses = enumerate_accesses(program, program.param_env)
        locations = [loc for _, loc, _ in accesses]
        assert locations == [(5,), (4,), (3,), (2,), (1,)]


# ----------------------------------------------------------------------
# The grouped oracle against its pairwise definition
# ----------------------------------------------------------------------
def reference_dependences(root, env, include_inputs=False):
    """The pairwise definition: every two accesses to one location.

    This is the oracle's original loop, kept verbatim as the reference
    the grouped evaluation must reproduce exactly.
    """
    from collections import defaultdict

    from repro.ir.visit import enclosing_loops

    chains = enclosing_loops(root)
    by_location = defaultdict(list)
    for array, location, access in enumerate_accesses(root, env):
        by_location[(array, location)].append(access)

    found = set()
    for accesses in by_location.values():
        accesses.sort(key=lambda a: a.time)
        for i, src in enumerate(accesses):
            for snk in accesses[i + 1 :]:
                if not (src.is_write or snk.is_write) and not include_inputs:
                    continue
                chain_a, chain_b = chains[src.sid], chains[snk.sid]
                k = 0
                while k < len(chain_a) and k < len(chain_b) and chain_a[k] is chain_b[k]:
                    k += 1
                src_iters = dict(src.iters)
                snk_iters = dict(snk.iters)
                dist = tuple(
                    (snk_iters[loop.var] - src_iters[loop.var]) // loop.step
                    for loop in chain_a[:k]
                )
                found.add((src.sid, src.slot, snk.sid, snk.slot, dist))
    return found


#: Threshold settings that force each evaluation path of the oracle:
#: the defaults, every location grouped with Python pairing, and every
#: group pair through NumPy as chunked pairs (one chunk per source row,
#: or few chunks) or as the unit-step bitset sweep.
PATHS = {
    "default": {},
    "grouped-python": {"BUSY_LOCATION": 0, "NUMPY_PAIRS": 1 << 40},
    "numpy-chunks": {"BUSY_LOCATION": 0, "NUMPY_PAIRS": 0, "SWEEP_WORDS": -1},
    "numpy-row-chunks": {
        "BUSY_LOCATION": 0,
        "NUMPY_PAIRS": 0,
        "SWEEP_WORDS": -1,
        "CHUNK_PAIRS": 1,
    },
    "numpy-sweep": {"BUSY_LOCATION": 0, "NUMPY_PAIRS": 0, "SWEEP_WORDS": 1 << 40},
}


class TestGroupedMatchesReference:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_random_nests(self, path, monkeypatch):
        from repro.verify import depforce
        from repro.verify.gennest import generate_program
        from repro.verify.runner import case_rng

        for name, value in PATHS[path].items():
            monkeypatch.setattr(depforce, name, value)
        for case in range(40):
            program = generate_program(case_rng(7, case), name=f"DF{case}")
            env = program.param_env
            for include_inputs in (False, True):
                assert brute_force_dependences(
                    program, env, include_inputs
                ) == reference_dependences(program, env, include_inputs), (
                    case,
                    include_inputs,
                )

    @pytest.mark.parametrize("name", sorted(e.name for e in get_set("all").entries()))
    def test_suite_entry_and_its_fixits(self, name):
        # The entry at mini, then every lint fix-it candidate as the
        # verifier hands it to the oracle: its recipe replayed on the
        # capped original.
        from repro.ir.pretty import pretty_program
        from repro.lint import lint_program
        from repro.lint.verifyfix import capped

        program = get_entry(name).program(instance="mini")
        env = program.param_env
        for include_inputs in (False, True):
            assert brute_force_dependences(
                program, env, include_inputs
            ) == reference_dependences(program, env, include_inputs)
        small = capped(program)
        for diag in lint_program(program, verify=False).diagnostics:
            fixit = diag.fixit
            if fixit is None:
                continue
            assert pretty_program(fixit.recipe.replay(program)) == pretty_program(
                fixit.program
            ), (diag.check_id, fixit.transform)
            candidate = fixit.recipe.replay(small)
            assert brute_force_dependences(
                candidate, candidate.param_env, include_inputs=True
            ) == reference_dependences(
                candidate, candidate.param_env, include_inputs=True
            ), (diag.check_id, fixit.transform)


REDUCTION = """
PROGRAM R
REAL A({n},{n},{n})
DO I = 1, {n}
  DO J = 1, {n}
    DO K = 1, {n}
      S = S + A(I,J,K)
    ENDDO
  ENDDO
ENDDO
END
"""


class TestScalarReduction:
    """A 0-d reference hit on every iteration: one location, n^3 reads and
    n^3 writes, so (2 n^3)^2 / 2 access pairs under the pairwise loop."""

    def test_small_reduction_matches_reference(self):
        program = _program(REDUCTION.format(n=5))
        for include_inputs in (False, True):
            assert brute_force_dependences(
                program, {}, include_inputs
            ) == reference_dependences(program, {}, include_inputs)

    def test_large_reduction_is_exact_in_bounded_memory(self):
        import itertools
        import tracemalloc

        n = 16
        program = _program(REDUCTION.format(n=n))
        sid = program.statements[0].sid
        tracemalloc.start()
        try:
            exact = brute_force_dependences(program, {}, include_inputs=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 16.7M projected pairs per group pair: taken whole they would
        # need hundreds of MB; chunked they stay in tens.
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"
        # Every lexicographically positive distance in the box, between
        # any two of the scalar's read (slot 1) and write (slot 0), plus
        # the same-iteration read -> write (anti) at distance 0.
        positive = {
            d
            for d in itertools.product(range(-(n - 1), n), repeat=3)
            if d > (0, 0, 0)
        }
        expected = {
            (sid, src, sid, snk, d)
            for src in (0, 1)
            for snk in (0, 1)
            for d in positive
        } | {(sid, 1, sid, 0, (0, 0, 0))}
        assert exact == expected


class TestAnalysisCovers:
    def test_reports_exactly_the_uncovered(self):
        program = _program(
            """
PROGRAM P
REAL A(12)
DO I = 2, 10
  A(I) = A(I-1) + A(I+1)
ENDDO
END
"""
        )
        deps = region_dependences(program, include_inputs=True)
        exact = brute_force_dependences(program, {}, include_inputs=True)
        bogus = (99, 0, 99, 1, (1,))
        assert analysis_covers(deps, exact | {bogus}) == [bogus]
        assert analysis_covers([], exact) == list(exact)
