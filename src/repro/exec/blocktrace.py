"""Trace engine: compile loop nests to NumPy address blocks.

Cache simulation only needs the *address stream*, not computed values, so
this module compiles a program into Python code that walks only the
*outer* loops in Python and turns each innermost loop into NumPy index
arithmetic: every affine access stream becomes

    addresses[slot::M] = const_part + coeff * iota(lb, ub, step)

so a whole innermost-loop execution is emitted as one structured
:class:`AccessBlock` (address/size/write/sid arrays) instead of ``M * trip``
callbacks. Blocks are coalesced up to ``block_size`` entries before being
handed to the consumer, and the event order inside the concatenated stream
is exactly the interpreter's (reads before the write, left-to-right,
statements in body order) — tested against the interpreter, which is the
oracle for this engine.

Subscript bounds are NOT checked here; run the validating interpreter
first if the program is untrusted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.ir.affine import Affine
from repro.ir.expr import Bin, Call
from repro.ir.nodes import Assign, Loop, Program
from repro.exec.layout import MemoryLayout

__all__ = [
    "AccessBlock",
    "BlockTraceError",
    "CompiledBlockTrace",
    "block_events",
    "compile_block_trace",
]

#: Entries accumulated before a coalesced block is emitted.
DEFAULT_BLOCK_SIZE = 1 << 16

#: Consumer protocol: one call per coalesced AccessBlock.
BlockFn = Callable[["AccessBlock"], None]


class BlockTraceError(ExecutionError):
    """The program cannot be compiled to the batched engine."""


@dataclass(frozen=True)
class AccessBlock:
    """A batch of dynamic array accesses in stream order.

    Structure-of-arrays layout: ``addresses`` (byte addresses, int64),
    ``sizes`` (bytes per access), ``writes`` (bool), ``sids`` (statement
    ids). All four arrays share one length.
    """

    addresses: np.ndarray
    sizes: np.ndarray
    writes: np.ndarray
    sids: np.ndarray

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def events(self) -> Iterator[tuple[int, int, bool, int]]:
        """Per-access ``(address, size, write, sid)`` tuples (test oracle)."""
        yield from zip(
            self.addresses.tolist(),
            self.sizes.tolist(),
            self.writes.tolist(),
            self.sids.tolist(),
        )


@dataclass(frozen=True)
class _Site:
    """Per-emission-site slot patterns (one entry per access slot)."""

    writes: np.ndarray
    sids: np.ndarray
    sizes: np.ndarray


class _BlockBuffer:
    """Coalesces emitted address runs into AccessBlocks of bounded size."""

    def __init__(self, on_block: BlockFn, sites: tuple[_Site, ...], block_size: int):
        self._on_block = on_block
        self._sites = sites
        self._block_size = block_size
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending = 0
        # site_id -> grown (writes, sids, sizes) tiles, reused across
        # innermost-loop executions so short trip counts don't pay a
        # np.tile allocation each time. The cached tiles are only ever
        # replaced (never mutated), so the slices handed out stay valid.
        self._tiles: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _site_tiles(self, site_id: int, reps: int):
        cached = self._tiles.get(site_id)
        if cached is None or cached[0].shape[0] < reps * self._sites[site_id].writes.shape[0]:
            site = self._sites[site_id]
            grow = max(reps, 2 * (cached[0].shape[0] // site.writes.shape[0]) if cached else reps)
            cached = (
                np.tile(site.writes, grow),
                np.tile(site.sids, grow),
                np.tile(site.sizes, grow),
            )
            self._tiles[site_id] = cached
        return cached

    def vec(self, site_id: int, addresses: np.ndarray) -> None:
        """One vectorized innermost-loop execution (slot-major interleave)."""
        n = addresses.shape[0]
        site = self._sites[site_id]
        reps = n // site.writes.shape[0]
        writes, sids, sizes = self._site_tiles(site_id, reps)
        self._parts.append((addresses, writes[:n], sids[:n], sizes[:n]))
        self._pending += n
        if self._pending >= self._block_size:
            self.flush()

    def scalar(self, site_id: int, addresses: tuple[int, ...]) -> None:
        """One statement instance outside any vectorized loop."""
        site = self._sites[site_id]
        self._parts.append(
            (
                np.array(addresses, dtype=np.int64),
                site.writes,
                site.sids,
                site.sizes,
            )
        )
        self._pending += len(addresses)
        if self._pending >= self._block_size:
            self.flush()

    def flush(self) -> None:
        if not self._parts:
            return
        if len(self._parts) == 1:
            addresses, writes, sids, sizes = self._parts[0]
        else:
            addresses = np.concatenate([p[0] for p in self._parts])
            writes = np.concatenate([p[1] for p in self._parts])
            sids = np.concatenate([p[2] for p in self._parts])
            sizes = np.concatenate([p[3] for p in self._parts])
        self._parts = []
        self._pending = 0
        self._on_block(AccessBlock(addresses, sizes, writes, sids))


@dataclass
class CompiledBlockTrace:
    """A compiled batched trace generator for one (program, params) pair."""

    program_name: str
    source: str
    _fn: Callable[[_BlockBuffer], tuple[int, int]]
    layout: MemoryLayout
    _sites: tuple[_Site, ...]
    block_size: int = DEFAULT_BLOCK_SIZE

    def run(self, on_block: BlockFn) -> tuple[int, int]:
        """Execute the trace; returns (statement instances, operations)."""
        buffer = _BlockBuffer(self._on_block_adapter(on_block), self._sites, self.block_size)
        return self._fn(buffer)

    @staticmethod
    def _on_block_adapter(on_block) -> BlockFn:
        """Accept either a callable or an object with ``on_block``."""
        if callable(on_block):
            return on_block
        return on_block.on_block


def compile_block_trace(
    program: Program,
    params: Mapping[str, int] | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CompiledBlockTrace:
    """Compile ``program`` (with concrete parameters) to a block trace.

    Raises:
        BlockTraceError: when an access or bound cannot be reduced to the
            affine arithmetic the engine generates.
    """
    from repro.obs import get_obs

    with get_obs().span("exec.blocktrace.compile", program=program.name):
        return _compile_block_trace(program, params, block_size)


def _compile_block_trace(
    program: Program,
    params: Mapping[str, int] | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CompiledBlockTrace:
    env = dict(program.param_env) | dict(params or {})
    layout = MemoryLayout.for_program(program, env)

    out = io.StringIO()
    sites: list[_Site] = []
    out.write("def __trace(__buf):\n")
    out.write("    __vec = __buf.vec\n")
    out.write("    __sca = __buf.scalar\n")
    out.write("    __count = 0\n")
    out.write("    __ops = 0\n")
    try:
        for node in program.body:
            _emit(node, env, layout, out, depth=1, sites=sites)
    except ExecutionError as exc:
        raise BlockTraceError(str(exc)) from exc
    out.write("    __buf.flush()\n")
    out.write("    return __count, __ops\n")
    source = out.getvalue()

    namespace: dict = {"_np": np}
    exec(compile(source, f"<blocktrace:{program.name}>", "exec"), namespace)
    return CompiledBlockTrace(
        program.name, source, namespace["__trace"], layout, tuple(sites), block_size
    )


def _slots(body: tuple[Assign, ...]) -> list[tuple]:
    """(ref, sid, is_write) per memory-access slot, in stream order."""
    slots = []
    for stmt in body:
        for ref in stmt.reads:
            if ref.rank:
                slots.append((ref, stmt.sid, False))
        if stmt.lhs.rank:
            slots.append((stmt.lhs, stmt.sid, True))
    return slots


def _register_site(sites: list[_Site], slots: list[tuple], layout: MemoryLayout) -> int:
    sites.append(
        _Site(
            writes=np.array([w for _, _, w in slots], dtype=bool),
            sids=np.array([sid for _, sid, _ in slots], dtype=np.int64),
            sizes=np.array(
                [layout[ref.array].elem_size for ref, _, _ in slots],
                dtype=np.int64,
            ),
        )
    )
    return len(sites) - 1


def _static_ops(stmt: Assign) -> int:
    """Arithmetic operations per dynamic instance of the statement."""

    def count(expr) -> int:
        total = 1 if isinstance(expr, (Bin, Call)) else 0
        return total + sum(count(c) for c in expr.children())

    return count(stmt.rhs)


def _affine_expr(form: Affine, env: Mapping[str, int]) -> str:
    """Python source for ``form`` with the parameters in ``env`` folded."""
    form = form.partial_evaluate(env)
    unknown = [n for n, _ in form.terms if not n.isidentifier()]
    if unknown:
        raise ExecutionError(f"cannot compile names {unknown} in {form}")
    parts = [str(form.const)]
    for name, coeff in form.terms:
        if name in env:
            continue  # already folded by partial_evaluate
        parts.append(f"{coeff}*{name}" if coeff != 1 else name)
    return " + ".join(parts)


def _address_affine(ref, env: Mapping[str, int], layout: MemoryLayout) -> Affine:
    """Base + column-major strides folded into one affine form."""
    arr = layout[ref.array]
    addr = Affine.constant(arr.base)
    for sub, stride in zip(ref.subs, arr.strides):
        addr = addr + (sub.partial_evaluate(env) - 1) * stride
    return addr


def _range_args(node: Loop, env: Mapping[str, int]) -> tuple[str, str]:
    lb = _affine_expr(node.lb, env)
    ub = _affine_expr(node.ub, env)
    stop = f"({ub}) + 1" if node.step > 0 else f"({ub}) - 1"
    return lb, stop


def _emit(
    node: "Loop | Assign",
    env: Mapping[str, int],
    layout: MemoryLayout,
    out: io.StringIO,
    depth: int,
    sites: list[_Site],
) -> None:
    pad = "    " * depth
    if isinstance(node, Assign):
        _emit_scalar_stmt(node, env, layout, out, pad, sites)
        return
    if all(isinstance(child, Assign) for child in node.body) and node.body:
        _emit_vector_loop(node, env, layout, out, pad, sites)
        return
    lb, stop = _range_args(node, env)
    out.write(f"{pad}for {node.var} in range({lb}, {stop}, {node.step}):\n")
    if not node.body:
        out.write(f"{pad}    pass\n")
    for child in node.body:
        _emit(child, env, layout, out, depth + 1, sites)


def _emit_scalar_stmt(
    stmt: Assign,
    env: Mapping[str, int],
    layout: MemoryLayout,
    out: io.StringIO,
    pad: str,
    sites: list[_Site],
) -> None:
    slots = _slots((stmt,))
    if slots:
        site_id = _register_site(sites, slots, layout)
        exprs = ", ".join(
            _affine_expr(_address_affine(ref, env, layout), env)
            for ref, _, _ in slots
        )
        comma = "," if len(slots) == 1 else ""
        out.write(f"{pad}__sca({site_id}, ({exprs}{comma}))\n")
    out.write(f"{pad}__count += 1\n")
    out.write(f"{pad}__ops += {_static_ops(stmt) + 1}\n")


def _emit_vector_loop(
    node: Loop,
    env: Mapping[str, int],
    layout: MemoryLayout,
    out: io.StringIO,
    pad: str,
    sites: list[_Site],
) -> None:
    """An innermost loop (body is all Assigns): one NumPy block per run."""
    slots = _slots(node.body)
    m = len(slots)
    lb, stop = _range_args(node, env)
    ops_per_iter = sum(_static_ops(stmt) + 1 for stmt in node.body)
    inner = pad + "    "
    if m == 0:
        # No memory traffic: only the instance/operation counters advance.
        out.write(f"{pad}__n = len(range({lb}, {stop}, {node.step}))\n")
        out.write(f"{pad}__count += __n * {len(node.body)}\n")
        out.write(f"{pad}__ops += __n * {ops_per_iter}\n")
        return
    site_id = _register_site(sites, slots, layout)
    out.write(
        f"{pad}__iv = _np.arange({lb}, {stop}, {node.step}, dtype=_np.int64)\n"
    )
    out.write(f"{pad}__n = __iv.shape[0]\n")
    out.write(f"{pad}if __n:\n")
    out.write(f"{inner}__count += __n * {len(node.body)}\n")
    out.write(f"{inner}__ops += __n * {ops_per_iter}\n")
    out.write(f"{inner}__a = _np.empty({m} * __n, dtype=_np.int64)\n")
    for slot, (ref, _, _) in enumerate(slots):
        addr = _address_affine(ref, env, layout)
        coeff = addr.coeff(node.var)
        const_src = _affine_expr(addr.substitute(node.var, 0), env)
        if coeff == 0:
            out.write(f"{inner}__a[{slot}::{m}] = {const_src}\n")
        elif coeff == 1:
            out.write(f"{inner}__a[{slot}::{m}] = ({const_src}) + __iv\n")
        else:
            out.write(
                f"{inner}__a[{slot}::{m}] = ({const_src}) + {coeff} * __iv\n"
            )
    out.write(f"{inner}__vec({site_id}, __a)\n")


def block_events(
    program: Program, params: Mapping[str, int] | None = None
) -> list[tuple[int, int, bool, int]]:
    """Run the batched engine, flattening blocks back to event tuples.

    Only useful for equivalence testing and debugging — it reintroduces
    the per-event cost the engine exists to avoid.
    """
    events: list[tuple[int, int, bool, int]] = []
    compile_block_trace(program, params).run(
        lambda block: events.extend(block.events())
    )
    return events
