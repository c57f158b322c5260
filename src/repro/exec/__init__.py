"""Program execution: interpreter, memory layout, timing model."""

from repro.exec.interp import AccessEvent, Interpreter, default_init, run_program
from repro.exec.layout import ArrayLayout, MemoryLayout
from repro.exec.timing import Machine, PerfResult, simulate
from repro.exec.trace import (
    AccessCounter,
    CacheFeed,
    StrideHistogram,
    TraceRecorder,
    record_trace,
    replay,
)
from repro.exec.blocktrace import (
    AccessBlock,
    BlockTraceError,
    CompiledBlockTrace,
    block_events,
    compile_block_trace,
)

__all__ = [
    "AccessBlock",
    "AccessCounter",
    "AccessEvent",
    "BlockTraceError",
    "CacheFeed",
    "CompiledBlockTrace",
    "StrideHistogram",
    "TraceRecorder",
    "block_events",
    "compile_block_trace",
    "record_trace",
    "replay",
    "ArrayLayout",
    "Interpreter",
    "Machine",
    "MemoryLayout",
    "PerfResult",
    "default_init",
    "run_program",
    "simulate",
]
