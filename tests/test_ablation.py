"""Ablations of the design choices DESIGN.md calls out.

Each test varies one model parameter and checks the *shape* of its
effect on the decisions the compiler makes:

* RefGroup's |d| <= 2 group-temporal threshold;
* the cache-line-size parameter cls feeding consecutive-cost and
  group-spatial detection;
* the timing model's miss penalty (does the predicted ranking survive?);
* fusion's profitability test (greedy-with-benefit vs fuse-anything).
"""

from repro.cache import CACHE2
from repro.exec import Machine, simulate
from repro.frontend import parse_program
from repro.model import CostModel
from repro.suite import MATMUL_ORDERS, matmul, suite_entries
from repro.transforms import fuse_adjacent


def test_temporal_threshold_only_merges_groups():
    """|d| <= k in RefGroup condition 1(b): k=0 loses group-temporal
    reuse between nearby iterations; k=2 is the paper's choice.

    The references differ in the *second* subscript (condition 2 cannot
    group them), so only the temporal threshold decides.
    """
    prog = parse_program(
        """
        PROGRAM p
        PARAMETER N = 64
        REAL A(N,N), B(N,N)
        DO I = 1, N
          DO J = 3, N
            B(I,J) = A(I,J) + A(I,J-2)
          ENDDO
        ENDDO
        END
        """
    )
    nest = prog.top_loops[0]
    groups = {
        k: len(CostModel(cls=4, temporal_max=k).groups(nest, "J"))
        for k in (0, 1, 2, 4, 8)
    }
    # Below the distance (2) the A references stay separate; at the
    # paper's threshold they merge. Larger thresholds only merge groups.
    assert groups[0] == 3 and groups[1] == 3
    assert groups[2] == 2
    counts = [groups[k] for k in sorted(groups)]
    assert counts == sorted(counts, reverse=True)


def test_cls_scales_benefit_not_memory_order():
    """cls (line size in elements) scales consecutive costs; the chosen
    memory order for matmul is cls-invariant but the predicted benefit
    is not."""
    nest = matmul(16, "IJK").top_loops[0]
    orders = set()
    ratios = []
    for cls in (2, 4, 8, 16):
        model = CostModel(cls=cls)
        costs = model.loop_costs(nest)
        orders.add(tuple(model.memory_order(nest)))
        ratios.append(costs["J"].magnitude() / costs["I"].magnitude())
    assert orders == {("J", "K", "I")}
    assert ratios == sorted(ratios)  # longer lines favour I more


def test_miss_penalty_keeps_the_winner():
    """The predicted winner must not depend on the timing model's miss
    penalty (rankings are miss-count driven)."""
    winners = set()
    for penalty in (4, 16, 64):
        machine = Machine(cache=CACHE2, miss_penalty=penalty)
        cycles = {
            order: simulate(matmul(48, order), machine).cycles
            for order in MATMUL_ORDERS
        }
        winners.add(min(cycles, key=cycles.get))
    assert winners == {"JKI"}


def test_fusion_benefit_test_never_fuses_more():
    """Greedy fusion with the benefit test vs fuse-everything-legal:
    the benefit test never fuses more, and still fuses somewhere."""
    model = CostModel(cls=4)
    with_benefit = without = 0
    for entry in suite_entries():
        program = entry.program(12)
        with_benefit += fuse_adjacent(program.body, model).fused
        without += fuse_adjacent(program.body, model, require_benefit=False).fused
    assert with_benefit <= without
    assert with_benefit > 0
