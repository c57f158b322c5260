"""Tests for loop distribution and the Compound driver (Figures 5-7)."""

from repro.frontend import parse_program
from repro.ir import Loop, iter_loops, validate_program
from repro.model import CostModel
from repro.transforms import compound, distribute_nest, finest_partitions

CHOLESKY = """
PROGRAM chol
PARAMETER N = 24
REAL A(N,N)
DO K = 1, N
  A(K,K) = SQRT(A(K,K))
  DO I = K+1, N
    A(I,K) = A(I,K) / A(K,K)
    DO J = K+1, I
      A(I,J) = A(I,J) - A(I,K)*A(J,K)
    ENDDO
  ENDDO
ENDDO
END
"""


class TestFinestPartitions:
    def test_independent_statements_split(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), B(N,N)
            DO I = 1, N
              DO J = 1, N
                A(I,J) = 1.0
                B(J,I) = 2.0
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        inner = nest.inner_loops[0]
        parts = finest_partitions(nest, inner, 2)
        assert len(parts) == 2

    def test_recurrence_stays_together(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N), B(N)
            DO I = 2, N
              A(I) = B(I-1)
              B(I) = A(I-1)
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        parts = finest_partitions(nest, nest, 1)
        assert len(parts) == 1

    def test_cholesky_level2_partitions(self):
        prog = parse_program(CHOLESKY)
        nest = prog.top_loops[0]
        i_loop = nest.inner_loops[0]
        parts = finest_partitions(nest, i_loop, 2)
        # S2 and the J-nest separate (no recurrence at level 2+).
        assert len(parts) == 2

    def test_outer_recurrence_ignored_at_deeper_level(self):
        # Recurrence carried by I (level 1) only: at level 2 the two
        # statements may distribute.
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N), B(N,N)
            DO I = 2, N
              DO J = 1, N
                A(I,J) = B(I-1,J)
                B(I,J) = A(I-1,J)
              ENDDO
            ENDDO
            END
            """
        )
        nest = prog.top_loops[0]
        inner = nest.inner_loops[0]
        assert len(finest_partitions(nest, inner, 2)) == 2
        assert len(finest_partitions(nest, nest, 1)) == 1


class TestDistributeNest:
    def test_cholesky_distributes_and_interchanges(self):
        prog = parse_program(CHOLESKY)
        nest = prog.top_loops[0]
        model = CostModel(cls=4)
        outcome = distribute_nest(nest, model)
        assert outcome is not None
        assert outcome.level == 2
        assert outcome.new_nests == 2
        (root,) = outcome.nodes
        assert root.var == "K"
        # Inside K: S1, the I loop with S2, and the interchanged J/I nest.
        inner = [n for n in root.body if isinstance(n, Loop)]
        assert len(inner) == 2
        permuted = inner[1]
        chain = permuted.perfect_nest_loops()
        # Memory order for S3 is (K) J I: J now outside I.
        assert chain[0].var == "J"
        assert chain[1].var.startswith("I")
        # Triangular bounds recomputed: inner I runs J..N-ish.
        assert "J" in {str(n) for n in chain[1].lb.names} or chain[1].lb.coeff("J")

    def test_no_distribution_when_single_partition(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 8
            REAL A(N,N)
            DO I = 2, N
              DO J = 2, N
                A(I,J) = A(I-1,J) + A(I,J-1)
              ENDDO
            ENDDO
            END
            """
        )
        assert distribute_nest(prog.top_loops[0], CostModel(cls=4)) is None

    def test_distribution_preserves_statements(self):
        prog = parse_program(CHOLESKY)
        nest = prog.top_loops[0]
        outcome = distribute_nest(nest, CostModel(cls=4))
        sids = sorted(
            s.sid for node in outcome.nodes for s in node.statements
        )
        assert sids == [0, 1, 2]


class TestCompound:
    def test_matmul_program(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 32
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
        outcome = compound(prog, CostModel(cls=4))
        assert len(outcome.nests) == 1
        assert outcome.nests[0].status == "perm"
        assert outcome.nests[0].inner_status == "perm"
        loops = [l.var for l in iter_loops(outcome.program)]
        assert loops == ["J", "K", "I"]
        validate_program(outcome.program)

    def test_cholesky_program(self):
        prog = parse_program(CHOLESKY)
        outcome = compound(prog, CostModel(cls=4))
        assert outcome.distribution_applied == 1
        assert outcome.distribution_resulting == 2
        report = outcome.nests[0]
        assert report.distributed
        validate_program(outcome.program)

    def test_adi_fusion_enables_permutation(self):
        prog = parse_program(
            """
            PROGRAM adi
            PARAMETER N = 40
            REAL X(N,N), A(N,N), B(N,N)
            DO I = 2, N
              DO K = 1, N
                X(I,K) = X(I,K) - X(I-1,K)*A(I,K)/B(I-1,K)
              ENDDO
              DO K = 1, N
                B(I,K) = B(I,K) - A(I,K)*A(I,K)/B(I-1,K)
              ENDDO
            ENDDO
            END
            """
        )
        outcome = compound(prog, CostModel(cls=4))
        report = outcome.nests[0]
        assert report.fusion_enabled_permutation
        assert report.status == "perm"
        # Fused and interchanged: K outermost, I innermost (Figure 3c).
        loops = [l.var for l in iter_loops(outcome.program)]
        assert loops == ["K", "I"]
        validate_program(outcome.program)

    def test_memory_order_program_untouched(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 16
            REAL A(N,N)
            DO J = 1, N
              DO I = 1, N
                A(I,J) = A(I,J) * 2.0
              ENDDO
            ENDDO
            END
            """
        )
        outcome = compound(prog, CostModel(cls=4))
        assert outcome.nests[0].status == "orig"
        assert outcome.program.body == prog.body

    def test_top_level_fusion_counts(self):
        prog = parse_program(
            """
            PROGRAM p
            PARAMETER N = 16
            REAL A(N,N), B(N,N), C(N,N)
            DO J = 1, N
              DO I = 1, N
                B(I,J) = A(I,J) * 2.0
              ENDDO
            ENDDO
            DO L = 1, N
              DO K = 1, N
                C(K,L) = A(K,L) + B(K,L)
              ENDDO
            ENDDO
            END
            """
        )
        outcome = compound(prog, CostModel(cls=4))
        assert outcome.fusion_candidates == 2
        assert outcome.nests_fused == 1
        assert len(outcome.program.top_loops) == 1
        validate_program(outcome.program)

    def test_stats_counts(self):
        prog = parse_program(CHOLESKY)
        outcome = compound(prog, CostModel(cls=4))
        counts = outcome.counts
        assert sum(counts.values()) == len(outcome.nests) == 1


class TestReplayRecord:
    def test_compound_and_lint_outcomes_replay_to_their_nodes(self, monkeypatch):
        # Every distribution compound and LOC002 make over the whole
        # registry at mini, repeated from its own record, rebuilds exactly
        # the nodes the search produced.
        import importlib

        from repro.lint import lint_program
        from repro.suite import get_set
        from repro.transforms.distribution import replay_distribution

        distribution = importlib.import_module("repro.transforms.distribution")
        real = distribution.distribute_nest
        seen = []

        def recording(nest_root, model=None, used_names=None):
            outcome = real(nest_root, model, used_names)
            if outcome is not None:
                seen.append((nest_root, outcome))
            return outcome

        monkeypatch.setattr(distribution, "distribute_nest", recording)
        monkeypatch.setattr(
            importlib.import_module("repro.transforms.compound"),
            "distribute_nest",
            recording,
        )
        for entry in get_set("all").entries():
            program = entry.program(instance="mini")
            compound(program, CostModel(cls=16))
            lint_program(program, checks=("LOC002",), verify=False)
        # Six at this size, two of them below the nest root.
        assert any(outcome.target_path for _, outcome in seen)
        for nest, outcome in seen:
            replayed = replay_distribution(
                nest,
                outcome.target_path,
                outcome.partitions,
                outcome.names,
                outcome.orders,
            )
            assert replayed == outcome.nodes
