"""The block-fed reuse analyzer against the interpreter-fed oracle.

:func:`repro.cache.reuse.per_ref_profile` (block trace) must reproduce
:func:`repro.locality.oracle_profile` (interpreter) exactly: the global
histogram and every per-``(sid, slot)`` profile.
"""

import random

import pytest

from repro.cache import reuse
from repro.cache.reuse import reuse_profile
from repro.errors import ReproError
from repro.frontend import parse_program
from repro.locality import PerRefReuseAnalyzer, oracle_profile, per_ref_profile
from repro.seeds import seed_sequence
from repro.suite import get_entry, get_set
from repro.verify.gennest import generate_program

KERNELS = [("matmul", 16), ("jacobi", 25), ("transpose", 24), ("cholesky", 17)]

ALL = get_set("all").entries()


def aggregate(analyzer):
    total = {}
    for profile in analyzer.profiles.values():
        for distance, count in profile.histogram.items():
            total[distance] = total.get(distance, 0) + count
    return total


def assert_matches_oracle(block, oracle):
    assert block.profile == oracle.profile
    assert block.profiles.keys() == oracle.profiles.keys()
    for key, want in oracle.profiles.items():
        assert block.profiles[key] == want, key


class TestPerRefEngine:
    @pytest.mark.parametrize("name,n", KERNELS)
    def test_aggregate_matches_reference_analyzer(self, name, n):
        program = get_entry(name).program(n)
        reference = reuse_profile(program, line=64)
        analyzer = per_ref_profile(program, line=64)
        assert aggregate(analyzer) == dict(reference.histogram)

    @pytest.mark.parametrize("name,n", KERNELS)
    def test_per_slot_mass_sums_to_accesses(self, name, n):
        program = get_entry(name).program(n)
        analyzer = per_ref_profile(program, line=32)
        reference = reuse_profile(program, line=32)
        per_slot = sum(p.accesses for p in analyzer.profiles.values())
        assert per_slot == reference.accesses
        for profile in analyzer.profiles.values():
            assert sum(profile.histogram.values()) == profile.accesses

    def test_slots_attributed_to_declared_refs(self):
        program = get_entry("matmul").program(12)
        analyzer = per_ref_profile(program, line=128)
        arrays = {p.array for p in analyzer.profiles.values()}
        assert arrays == {"A", "B", "C"}
        # matmul's one statement has a write and three reads.
        assert len(analyzer.profiles) == 4

    @pytest.mark.parametrize("seed", seed_sequence(4, "locality-engines"))
    def test_random_nests_agree_with_reference(self, seed):
        program = generate_program(random.Random(seed), name=f"LE{seed}")
        assert_matches_oracle(
            per_ref_profile(program, line=8), oracle_profile(program, line=8)
        )


class TestBlockEngine:
    @pytest.mark.parametrize("name,n", KERNELS)
    def test_unsampled_is_bit_identical(self, name, n):
        entry = get_entry(name)
        program = entry.program(n)
        profile = reuse_profile(program, line=64)
        oracle = oracle_profile(program, line=64, init=entry.init)
        assert profile == oracle.profile

    def test_rejects_bad_parameters(self):
        source = parse_program(
            "PROGRAM p\nREAL A(8)\nDO I = 1, 8\nA(I) = 0.0\nENDDO\nEND"
        )
        with pytest.raises(ValueError):
            reuse_profile(source, line=48)  # not a power of two
        with pytest.raises(ValueError):
            PerRefReuseAnalyzer(source, line=0)

    def test_trace_longer_than_initial_tree(self, monkeypatch):
        # The stack starts with room for 16 timestamps and must grow
        # (and renumber) many times over a 2048-access trace.
        monkeypatch.setattr(reuse, "INITIAL_CAPACITY", 16)
        entry = get_entry("matmul")
        program = entry.program(instance="mini")
        block = per_ref_profile(program, line=32)
        assert block.profile.accesses > 16 * 100
        assert_matches_oracle(block, oracle_profile(program, line=32))

    def test_max_accesses_is_a_cap(self):
        program = get_entry("matmul").program(instance="mini")
        accesses = reuse_profile(program).accesses
        assert reuse_profile(program, max_accesses=accesses).accesses == accesses
        with pytest.raises(ReproError, match="max_accesses"):
            reuse_profile(program, max_accesses=accesses - 1)


class TestOracle:
    @pytest.mark.parametrize("entry", ALL, ids=[e.name for e in ALL])
    def test_every_entry_matches_oracle(self, entry):
        program = entry.program(instance="mini")
        assert_matches_oracle(
            per_ref_profile(program, line=64),
            oracle_profile(program, line=64, init=entry.init),
        )
