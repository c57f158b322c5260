"""Algebraic property tests on the transformations themselves.

Three structural round-trip properties ride on the verification
subsystem: an involutive permutation applied twice is the identity,
distribution followed by fusion restores the original semantics, and the
compound driver is a fixed point (running it on its own output changes
nothing).
"""

import pytest

from repro.frontend import parse_program
from repro.ir import pretty_program
from repro.ir.nodes import Assign, Loop
from repro.ir.visit import iter_loops
from repro.model import CostModel
from repro.transforms.compound import compound
from repro.transforms.distribution import distribute_nest, finest_partitions
from repro.transforms.fusion import fuse_adjacent
from repro.transforms.permute import apply_order
from repro.verify.gennest import generate_program
from repro.verify.oracles import run_state
from repro.verify.runner import case_rng

MATMUL = """
PROGRAM MM
PARAMETER N = 6
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

FISSIONED = """
PROGRAM FIS
REAL A(9,9), B(9,9)
DO I = 1, 8
  DO J = 1, 8
    A(I,J) = I + J
  ENDDO
ENDDO
DO I = 1, 8
  DO J = 1, 8
    B(I,J) = A(I,J) * 2
  ENDDO
ENDDO
END
"""

CHOLESKY = """
PROGRAM CHOL
PARAMETER N = 12
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

# Involutions on three positions: applying twice is the identity.
INVOLUTIONS = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]


class TestPermutationInvolution:
    @pytest.mark.parametrize("perm", INVOLUTIONS)
    def test_applying_a_swap_twice_restores_the_nest(self, perm):
        nest = parse_program(MATMUL).body[0]
        original = pretty_program_nest(nest)
        chain = nest.perfect_nest_loops()
        order1 = tuple(chain[p].var for p in perm)
        once = apply_order(chain, order1, set())
        chain1 = once.perfect_nest_loops()
        order2 = tuple(chain1[p].var for p in perm)
        twice = apply_order(chain1, order2, set())
        assert pretty_program_nest(twice) == original

    def test_double_reversal_restores_the_nest(self):
        nest = parse_program(MATMUL).body[0]
        original = pretty_program_nest(nest)
        chain = nest.perfect_nest_loops()
        order = tuple(loop.var for loop in chain)
        once = apply_order(chain, order, {"I"})
        twice = apply_order(once.perfect_nest_loops(), order, {"I"})
        assert pretty_program_nest(twice) == original


def pretty_program_nest(nest: Loop) -> str:
    program = parse_program(MATMUL)
    return pretty_program(program.with_body([nest]))


class TestDistributionFusionRoundTrip:
    def test_fission_then_fusion_round_trips(self):
        # The fissioned form fuses into one nest, and distributing that
        # nest's body splits it back into the same two statement groups.
        program = parse_program(FISSIONED)
        model = CostModel()
        outcome = fuse_adjacent(program.body, model, require_benefit=False)
        assert outcome.fused == 1
        fused = program.with_body(list(outcome.items))
        assert sum(isinstance(n, Loop) for n in fused.body) == 1
        assert run_state(fused) == run_state(program)

        nest = fused.body[0]
        inner = nest.body[0]
        parts = finest_partitions(nest, inner, 2)
        assert len(parts) == 2
        def sids(item):
            if isinstance(item, Assign):
                return [item.sid]
            return [s.sid for s in item.statements]

        sid_groups = [
            sorted(sid for item in part for sid in sids(item))
            for part in parts
        ]
        original_groups = [
            sorted(s.sid for s in n.statements) for n in program.body
        ]
        assert sid_groups == original_groups

    def test_distribution_preserves_semantics(self):
        # The real driver on the paper's Cholesky example: distribution
        # plus the enabled interchange must not change program output.
        # Initial data must be positive definite for SQRT to stay real;
        # a diagonally dominant symmetric matrix is.
        import numpy as np

        from repro.exec.interp import Interpreter

        def init(name, extents):
            data = np.full(extents, 0.01)
            for i in range(extents[0]):
                data[i, i] = float(extents[0])
            return data

        def state(prog):
            arrays = Interpreter(prog, check_values=False, init=init).run()
            return {name: arr.tobytes() for name, arr in arrays.items()}

        program = parse_program(CHOLESKY)
        nest = program.body[0]
        used = {loop.var for loop in iter_loops(program)}
        outcome = distribute_nest(nest, CostModel(), used_names=set(used))
        assert outcome is not None and outcome.new_nests == 2
        distributed = program.with_body(list(outcome.nodes))
        assert state(distributed) == state(program)


class TestCompoundFixedPoint:
    def test_matmul_fixed_point(self):
        program = parse_program(MATMUL)
        first = compound(program, CostModel()).program
        second = compound(first, CostModel()).program
        assert pretty_program(second) == pretty_program(first)

    @pytest.mark.parametrize("case", range(20))
    def test_generated_nests_fixed_point(self, case):
        program = generate_program(case_rng(0, case), name=f"FP{case}")
        first = compound(program, CostModel()).program
        second = compound(first, CostModel()).program
        assert pretty_program(second) == pretty_program(first)
        # And the driver's output is always semantics-preserving.
        assert run_state(first) == run_state(program)
