"""Cycle-level performance model over the exact address trace.

The paper reports wall-clock seconds on 1990s hardware; we substitute a
simple timing model over the exact address trace:

    cycles = operations + load/store cycles + miss_penalty * misses

Relative comparisons between loop orders — the paper's actual claims —
are dominated by the miss term, which the cache simulator computes
exactly for the configured geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import CacheConfig, CacheStats, SetAssocCache
from repro.cache.configs import CACHE1
from repro.ir.nodes import Program
from repro.exec.blocktrace import run_trace
from repro.obs import get_obs

__all__ = ["Machine", "PerfResult", "simulate"]


@dataclass(frozen=True)
class Machine:
    """A simulated machine: one data cache plus scalar cost parameters."""

    cache: CacheConfig = CACHE1
    miss_penalty: int = 16  # cycles per cache-line miss
    access_cycles: int = 1  # cycles per load/store that hits
    op_cycles: int = 1  # cycles per arithmetic operation

    @property
    def name(self) -> str:
        return self.cache.name


@dataclass
class PerfResult:
    """Outcome of one simulated run."""

    program: str
    machine: Machine
    cycles: int
    accesses: int
    operations: int
    cache: CacheStats

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate()


def simulate(
    program: Program,
    machine: Machine | None = None,
    init=None,
    compiled: bool = True,
) -> PerfResult:
    """Run ``program`` against a machine model; returns timing + stats.

    :func:`repro.exec.blocktrace.run_trace` feeds the cache the exact
    address stream: the block trace, or the validating interpreter (real
    arithmetic from ``init``) when ``compiled=False`` is passed or the
    block compiler rejects the program. Both give the same statistics.
    """
    machine = machine or Machine()
    obs = get_obs()
    cache = SetAssocCache(machine.cache)

    def on_block(block) -> None:
        cache.access_block(block.addresses, block.sizes)

    with obs.span(
        "exec.simulate", program=program.name, machine=machine.name
    ):
        operations = run_trace(program, on_block, init, compiled)

    stats = cache.stats
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("cache.accesses").inc(stats.accesses)
        metrics.counter("cache.misses").inc(stats.misses)
        metrics.counter("exec.simulations").inc()
    cycles = (
        operations * machine.op_cycles
        + stats.accesses * machine.access_cycles
        + stats.misses * machine.miss_penalty
    )
    return PerfResult(
        program=program.name,
        machine=machine,
        cycles=cycles,
        accesses=stats.accesses,
        operations=operations,
        cache=stats,
    )
