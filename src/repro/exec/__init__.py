"""Program execution: interpreter, memory layout, timing model."""

from repro.exec.interp import AccessEvent, Interpreter, default_init, run_program
from repro.exec.layout import ArrayLayout, MemoryLayout
from repro.exec.timing import Machine, PerfResult, simulate
from repro.exec.blocktrace import (
    AccessBlock,
    BlockTraceError,
    CompiledBlockTrace,
    compile_block_trace,
    run_trace,
)

__all__ = [
    "AccessBlock",
    "AccessEvent",
    "BlockTraceError",
    "CompiledBlockTrace",
    "compile_block_trace",
    "ArrayLayout",
    "Interpreter",
    "Machine",
    "MemoryLayout",
    "PerfResult",
    "default_init",
    "run_program",
    "run_trace",
    "simulate",
]
