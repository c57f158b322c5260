"""The generated trace code must match the interpreter's address stream.

:func:`repro.exec.compile_block_trace` generates Python source for each
program; the interpreter is its oracle.
"""

import pytest

from repro.exec import Interpreter, block_events, simulate
from repro.exec.blocktrace import compile_block_trace
from repro.suite import cholesky, matmul, spd_init, suite_entries
from repro.cache import CACHE2
from repro.exec.timing import Machine


def interpreter_trace(prog, init=None):
    events = []
    Interpreter(
        prog,
        on_access=lambda e: events.append((e.address, e.size, e.write, e.sid)),
        init=init,
    ).run()
    return events


ENTRIES = suite_entries()


class TestTraceEquivalence:
    @pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
    def test_identical_streams(self, entry):
        prog = entry.program(6)
        assert block_events(prog) == interpreter_trace(prog, entry.init)

    def test_matmul_trace_length(self):
        sizes = []
        compile_block_trace(matmul(4, "IJK")).run(lambda block: sizes.append(len(block)))
        assert sum(sizes) == 4 ** 3 * 4  # 3 reads + 1 write per instance

    def test_operation_counts_match_interpreter(self):
        prog = cholesky(6, "KIJ")
        interp = Interpreter(prog, init=spd_init)
        interp.run()
        count, ops = compile_block_trace(prog).run(lambda block: None)
        assert count == interp.statements_executed
        assert ops == interp.operations_executed

    def test_simulate_compiled_matches_interpreted(self):
        prog = matmul(8, "JKI")
        machine = Machine(cache=CACHE2)
        fast = simulate(prog, machine, compiled=True)
        slow = simulate(prog, machine, compiled=False)
        assert fast.cycles == slow.cycles
        assert fast.cache.hit_rate() == slow.cache.hit_rate()

    def test_source_is_readable(self):
        trace = compile_block_trace(matmul(4, "JKI"))
        assert "for J in range(1, (4) + 1, 1):" in trace.source
        assert "__vec(" in trace.source
