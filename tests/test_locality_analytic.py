"""Tests for the analytic locality predictor (repro.locality.analytic)."""

import textwrap

import pytest

from repro.cache.reuse import reuse_profile
from repro.frontend import parse_program
from repro.locality import predict_locality
from repro.locality.polysum import chain_count
from repro.suite import get_entry


def program_from(text: str):
    return parse_program(textwrap.dedent(text))


class TestExactPath:
    def probe(self, source, line=8):
        program = program_from(source)
        prediction = predict_locality(program, line=line)
        trace = reuse_profile(program, line=line)
        return program, prediction, trace

    def test_transpose_is_exact_at_element_granularity(self):
        _, prediction, trace = self.probe(
            """
            PROGRAM p
            PARAMETER N = 12
            REAL A(N,N), B(N,N)
            DO I = 1, N
              DO J = 1, N
                B(I,J) = A(J,I)
              ENDDO
            ENDDO
            END
            """
        )
        assert prediction.exact
        assert dict(prediction.predicted_histogram()) == dict(trace.histogram)

    def test_repeated_identical_subscripts_stay_exact(self):
        _, prediction, trace = self.probe(
            """
            PROGRAM p
            PARAMETER N = 9
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = A(I,J) + 2.0
              ENDDO
            ENDDO
            END
            """
        )
        assert prediction.exact
        assert dict(prediction.predicted_histogram()) == dict(trace.histogram)

    def test_partially_invariant_slot_leaves_exact_class(self):
        # A(I,K) under (I,J,K) is invariant in J but varies inside the J
        # window: out of the exact class, served by the model path.
        _, prediction, trace = self.probe(
            """
            PROGRAM p
            PARAMETER N = 12
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
        )
        assert not prediction.exact
        assert prediction.accesses == trace.accesses

    def test_wide_lines_fall_back_to_model_path(self):
        program = program_from(
            """
            PROGRAM p
            PARAMETER N = 16
            REAL A(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 1.0
              ENDDO
            ENDDO
            END
            """
        )
        prediction = predict_locality(program, line=64)
        assert not prediction.exact


class TestModelPath:
    # adi/erlebacher stay gated — by the slow lane here and by
    # bench_locality --quick in CI — but off tier-1's clock.
    @pytest.mark.parametrize(
        "name,n",
        [("jacobi", 65),
         pytest.param("adi", 49, marks=pytest.mark.slow),
         pytest.param("erlebacher_like", 17, marks=pytest.mark.slow),
         ("cholesky", 41), ("transpose", 97)],
    )
    @pytest.mark.parametrize("line,capacity", [(128, 512), (32, 256)])
    def test_gate_kernels_within_two_points(self, name, n, line, capacity):
        program = get_entry(name).program(n)
        trace = reuse_profile(program, line=line)
        prediction = predict_locality(program, line=line)
        assert prediction.hit_rate_for_capacity(capacity) == pytest.approx(
            trace.hit_rate_for_capacity(capacity), abs=0.02
        )

    def test_access_counts_match_trace(self):
        program = get_entry("cholesky").program(25)
        trace = reuse_profile(program, line=32)
        prediction = predict_locality(program, line=32)
        assert prediction.accesses == trace.accesses

    def test_by_kind_partitions_reuse(self):
        program = get_entry("jacobi").program(33)
        prediction = predict_locality(program, line=64)
        kinds = prediction.by_kind()
        assert kinds  # at least one reuse class
        assert sum(kinds.values()) == prediction.accesses
        assert kinds.get("cold") == prediction.cold
        assert set(kinds) <= {
            "intra", "group", "temporal", "spatial", "sequential", "cold"
        }


class TestPredictionApi:
    def test_degenerate_all_cold_hit_rate_is_one(self):
        # Convention shared with ReuseProfile: an empty warm denominator
        # reads as a perfect warm hit rate.
        program = program_from(
            """
            PROGRAM p
            REAL A(4)
            DO I = 1, 4
              A(I) = 0.0
            ENDDO
            END
            """
        )
        prediction = predict_locality(program, line=8)
        assert prediction.cold == prediction.accesses
        assert prediction.hit_rate_for_capacity(16) == 1.0

    def test_set_assoc_bounded_by_fully_associative(self):
        program = get_entry("matmul").program(24)
        prediction = predict_locality(program, line=64)
        fa = prediction.hit_rate_for_capacity(512)
        sa = prediction.hit_rate_set_assoc(sets=128, assoc=4)
        assert 0.0 <= sa <= fa + 1e-9

    def test_include_cold_rate_never_higher(self):
        program = get_entry("jacobi").program(33)
        prediction = predict_locality(program, line=64)
        for capacity in (16, 128, 1024):
            assert prediction.hit_rate_for_capacity(
                capacity, include_cold=True
            ) <= prediction.hit_rate_for_capacity(capacity) + 1e-12


class TestPolysum:
    def test_rectangular_chain_count(self):
        program = program_from(
            """
            PROGRAM p
            PARAMETER N = 7
            REAL A(N,N)
            DO I = 1, N
              DO J = 2, N
                A(I,J) = 0.0
              ENDDO
            ENDDO
            END
            """
        )
        loops = program.body[0].perfect_nest_loops()
        assert chain_count(loops, {"N": 7}) == 7 * 6

    def test_triangular_chain_count(self):
        program = program_from(
            """
            PROGRAM p
            PARAMETER N = 9
            REAL A(N,N)
            DO I = 1, N
              DO J = I, N
                A(I,J) = 0.0
              ENDDO
            ENDDO
            END
            """
        )
        loops = program.body[0].perfect_nest_loops()
        want = sum(9 - i + 1 for i in range(1, 10))
        assert chain_count(loops, {"N": 9}) == want
