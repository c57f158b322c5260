"""Trace engine: compile loop nests to NumPy address blocks.

Cache simulation only needs the *address stream*, not computed values, so
this module compiles a program into Python code that turns each *perfect
loop chain* into NumPy index arithmetic. A chain is a loop whose body is
a single loop, repeated, ending in a loop whose body is only assignments
(an innermost loop alone is a chain of length 1). Its whole iteration
space, in lexicographic order, becomes one ``(iterations, M)`` array of
addresses, one column per access slot:

    addresses[row, slot] = const_part + sum(coeff[level] * value[row, level])

A rectangular level (bounds free of the chain's outer variables) pairs
every row so far with every value of ``arange(lb, ub, step)``; a level
whose bounds are affine in them (triangular, shifted) gives each row its
own trip count, clamped at 0, and builds the values with ``cumsum`` and
``repeat``. Raveling the array gives the slot-major stream, so a whole
chain execution is one structured :class:`AccessBlock`
(address/size/write/sid arrays) instead of ``M * trip`` callbacks.

Memory is bounded per chain: slots times an upper bound on the chain's
iterations (from :meth:`Affine.interval` over the value hulls of the
enclosing loops) must stay within ``block_size // 4`` entries. A chain
over that budget keeps its head as a Python ``for`` and the rest is tried
again one level down; an innermost loop is always vectorized.

Blocks are coalesced up to ``block_size`` entries before being handed to
the consumer, and the event order inside the concatenated stream is
exactly the interpreter's (iterations in loop order; within one, reads
before the write, left-to-right, statements in body order) — tested
against the interpreter, which is the oracle for this engine.

Consumers call :func:`run_trace`, the one place an engine is chosen: the
block trace, or the interpreter when asked for or when the compiler
rejects the program. Either way they receive blocks.

:func:`compile_block_trace` compiles a program once: compiled traces,
and declines (kept as the message and raised afresh), live in the
registered :class:`~repro.model.memo.MemoCache` ``exec.blocktrace.cache``
keyed by ``(program, block_size)``. The key is the frozen
:class:`Program` value itself, not the :mod:`repro.ir.canon` digest: the
canonical form sorts declarations, whose order sets the arrays' base
addresses, and renumbers statement ids, which every block carries; and
the pretty text the digest hashes does not print ``elem_size``. Programs
the digest identifies can therefore have different streams. A cached
trace is shared freely (across threads too): :meth:`CompiledBlockTrace.run`
builds a fresh buffer per call and the compiled arrays are read-only.

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
from repro.exec.interp import AccessEvent, Interpreter
from repro.exec.layout import MemoryLayout
from repro.model.memo import MemoCache
from repro.obs import get_obs

__all__ = [
    "AccessBlock",
    "BlockTraceError",
    "CompiledBlockTrace",
    "compile_block_trace",
    "run_trace",
]

#: Entries accumulated before a coalesced block is emitted.
DEFAULT_BLOCK_SIZE = 1 << 16

#: Consumer protocol: one call per coalesced AccessBlock.
BlockFn = Callable[["AccessBlock"], None]

#: (program, block_size) -> CompiledBlockTrace, or the
#: decline message. Perfbench's simulate workload cycles through 61
#: programs, original and optimized (107 distinct keys), in shuffled
#: order; an LRU smaller than a pass would never hit, so the cap holds
#: a whole pass.
_TRACES = MemoCache("exec.blocktrace.cache", cap=256)


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
        """One collapsed chain execution (slot-major interleave)."""
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


@dataclass(frozen=True)
class CompiledBlockTrace:
    """A compiled batched trace generator for one program.

    Frozen because :func:`compile_block_trace` shares one instance
    between every caller that asks for the same trace.
    """

    program_name: str
    source: str
    _fn: Callable[[_BlockBuffer], tuple[int, int]]
    layout: MemoryLayout
    _sites: tuple[_Site, ...]
    block_size: int = DEFAULT_BLOCK_SIZE

    def run(self, on_block: BlockFn) -> tuple[int, int]:
        """Execute the trace; returns (statement instances, operations)."""
        return self._fn(_BlockBuffer(on_block, self._sites, self.block_size))


def compile_block_trace(
    program: Program,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CompiledBlockTrace:
    """Compile ``program`` (at its parameter values) to a block trace,
    memoized in ``exec.blocktrace.cache`` (see the module docstring).

    Raises:
        BlockTraceError: when an access or bound cannot be reduced to the
            affine arithmetic the engine generates. The decline is cached
            like a result.
    """
    key = (program, block_size)
    compiled = _TRACES.get(key)
    if compiled is None:
        try:
            with get_obs().span("exec.blocktrace.compile", program=program.name):
                compiled = _compile_block_trace(program, block_size)
        except BlockTraceError as decline:
            compiled = str(decline)
        _TRACES.put(key, compiled)
    if isinstance(compiled, str):
        raise BlockTraceError(compiled)
    return compiled


def run_trace(
    program: Program,
    on_block: BlockFn,
    init=None,
    compiled: bool = True,
) -> int:
    """Feed ``program``'s address trace to ``on_block``; returns the
    operation count.

    The one place the engine is chosen: the block trace, or the
    validating interpreter (computing real values from ``init``) when
    ``compiled=False`` or when the block compiler rejects the program.
    Both give the same stream, in blocks either way.
    """
    obs = get_obs()
    if compiled:
        try:
            # A module global looked up per call, so wrappers apply.
            trace = compile_block_trace(program)
        except BlockTraceError:
            if obs.enabled:
                obs.metrics.counter("trace.block.fallback").inc()
        else:
            _, operations = trace.run(on_block)
            if obs.enabled:
                obs.metrics.counter("trace.engine.block").inc()
            return operations

    events: list[AccessEvent] = []

    def flush() -> None:
        on_block(
            AccessBlock(
                np.array([e.address for e in events], dtype=np.int64),
                np.array([e.size for e in events], dtype=np.int64),
                np.array([e.write for e in events], dtype=bool),
                np.array([e.sid for e in events], dtype=np.int64),
            )
        )
        events.clear()

    def on_access(event: AccessEvent) -> None:
        events.append(event)
        if len(events) >= DEFAULT_BLOCK_SIZE:
            flush()

    interp = Interpreter(program, on_access=on_access, init=init)
    interp.run()
    if events:
        flush()
    return interp.operations_executed


def _compile_block_trace(
    program: Program, block_size: int = DEFAULT_BLOCK_SIZE
) -> CompiledBlockTrace:
    env = program.param_env
    layout = MemoryLayout.for_program(program)
    # A quarter block per chain keeps coalesced blocks under 1.25 *
    # block_size entries; a full block per chain raised perfbench
    # simulate's peak RSS by 6 MB and saved no CPU.
    emitter = _Emitter(env, layout, budget=block_size // 4)
    out = emitter.out
    out.write("def __trace(__buf):\n")
    out.write("    __vec = __buf.vec\n")
    out.write("    __sca = __buf.scalar\n")
    out.write("    __count = 0\n")
    out.write("    __ops = 0\n")
    # Parameters are single-valued ranges, so bound hulls fold them.
    ranges = {name: (value, value) for name, value in env.items()}
    try:
        for node in program.body:
            emitter.emit(node, depth=1, ranges=ranges)
    except ExecutionError as exc:
        raise BlockTraceError(str(exc)) from exc
    out.write("    __buf.flush()\n")
    out.write("    return __count, __ops\n")
    source = out.getvalue()

    namespace: dict = {"_np": np, **emitter.consts}
    exec(compile(source, f"<blocktrace:{program.name}>", "exec"), namespace)
    return CompiledBlockTrace(
        program.name,
        source,
        namespace["__trace"],
        layout,
        tuple(emitter.sites),
        block_size,
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


def _static_ops(stmt: Assign) -> int:
    """Arithmetic operations per dynamic instance of the statement."""

    def count(expr) -> int:
        total = 1 if isinstance(expr, (Bin, Call)) else 0
        return total + sum(count(c) for c in expr.children())

    return count(stmt.rhs)


def _affine_expr(
    form: Affine, env: Mapping[str, int], columns: Mapping[str, str] | None = None
) -> str:
    """Python source for ``form`` with the parameters in ``env`` folded
    and each name in ``columns`` read from the source it maps to."""
    form = form.partial_evaluate(env)
    unknown = [n for n, _ in form.terms if not n.isidentifier()]
    if unknown:
        raise ExecutionError(f"cannot compile names {unknown} in {form}")
    columns = columns or {}
    parts = [str(form.const)]
    for name, coeff in form.terms:
        name = columns.get(name, name)
        parts.append(f"{coeff}*{name}" if coeff != 1 else name)
    return " + ".join(parts)


def _read_only(values: list, dtype=np.int64) -> np.ndarray:
    """An array a cached trace may share with every run and consumer."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _perfect_chain(node: Loop) -> tuple[Loop, ...] | None:
    """``node`` and the loops below it while each body is a single loop,
    when the last body is only Assigns (None otherwise)."""
    chain = [node]
    while len(chain[-1].body) == 1 and isinstance(chain[-1].body[0], Loop):
        chain.append(chain[-1].body[0])
    body = chain[-1].body
    if body and all(isinstance(child, Assign) for child in body):
        return tuple(chain)
    return None


class _Emitter:
    """Writes the body of one trace function.

    ``sites`` collects the slot patterns the buffer tiles, ``consts`` the
    coefficient vectors the generated code reads by name, and ``budget``
    caps the entries one execution of a collapsed chain may produce.
    """

    def __init__(self, env: Mapping[str, int], layout: MemoryLayout, budget: int):
        self.env = env
        self.layout = layout
        self.budget = budget
        self.out = io.StringIO()
        self.sites: list[_Site] = []
        self.consts: dict[str, np.ndarray] = {}

    def emit(
        self, node: "Loop | Assign", depth: int, ranges: Mapping[str, tuple[int, int]]
    ) -> None:
        """``node`` at indent ``depth``; ``ranges`` holds a value hull for
        every parameter and enclosing loop variable."""
        pad = "    " * depth
        if isinstance(node, Assign):
            self._scalar_stmt(node, pad)
            return
        chain = _perfect_chain(node)
        if chain is not None:
            slots = _slots(chain[-1].body)
            if len(chain) == 1 or self._fits(chain, len(slots), ranges):
                self._chain(chain, slots, pad)
                return
        lb, stop = self._range_args(node)
        self.out.write(f"{pad}for {node.var} in range({lb}, {stop}, {node.step}):\n")
        if not node.body:
            self.out.write(f"{pad}    pass\n")
        inner = dict(ranges)
        try:
            inner[node.var] = node.bound_hull(ranges)[0]
        except KeyError:
            pass  # no hull: no chain whose bounds read it collapses
        for child in node.body:
            self.emit(child, depth + 1, inner)

    def _fits(
        self, chain: tuple[Loop, ...], entries: int, ranges: Mapping[str, tuple[int, int]]
    ) -> bool:
        """Whether the chain has access slots and ``entries`` (the slots)
        × an upper bound on its iterations stays within the budget."""
        if not entries:
            return False
        ranges = dict(ranges)
        try:
            for loop in chain:
                ranges[loop.var], trip = loop.bound_hull(ranges)
                entries *= trip
        except KeyError:
            return False
        return entries <= self.budget

    def _range_args(self, node: Loop) -> tuple[str, str]:
        lb = _affine_expr(node.lb, self.env)
        ub = _affine_expr(node.ub, self.env)
        stop = f"({ub}) + 1" if node.step > 0 else f"({ub}) - 1"
        return lb, stop

    def _register_site(self, slots: list[tuple]) -> int:
        self.sites.append(
            _Site(
                writes=_read_only([w for _, _, w in slots], bool),
                sids=_read_only([sid for _, sid, _ in slots]),
                sizes=_read_only([self.layout[ref.array].elem_size for ref, _, _ in slots]),
            )
        )
        return len(self.sites) - 1

    def _const(self, values: list[int]) -> str:
        name = f"__c{len(self.consts)}"
        self.consts[name] = _read_only(values)
        return name

    def _scalar_stmt(self, stmt: Assign, pad: str) -> None:
        slots = _slots((stmt,))
        if slots:
            site_id = self._register_site(slots)
            exprs = ", ".join(
                _affine_expr(self.layout[ref.array].address_form(ref, self.env), self.env)
                for ref, _, _ in slots
            )
            comma = "," if len(slots) == 1 else ""
            self.out.write(f"{pad}__sca({site_id}, ({exprs}{comma}))\n")
        self.out.write(f"{pad}__count += 1\n")
        self.out.write(f"{pad}__ops += {_static_ops(stmt) + 1}\n")

    def _chain(self, chain: tuple[Loop, ...], slots: list[tuple], pad: str) -> None:
        """A perfect loop chain (length 1: an innermost loop) as one NumPy
        block per entry.

        ``__P`` has one row per iteration of the chain, in lexicographic
        order, and one column per access slot, then one per collapsed
        variable that a later level's bounds read. Each level widens it:
        a rectangular level (bounds free of the collapsed variables) pairs
        every row with every value of an ``arange``; a ragged one gives
        each row its own clamped count and builds the values with the
        cumsum/repeat idiom. ``__P.ravel()`` is then the slot-major stream.
        """
        out = self.out
        body = chain[-1].body
        ops_per_iter = sum(_static_ops(stmt) + 1 for stmt in body)
        if not slots:
            # No memory traffic: only the instance/operation counters advance.
            lb, stop = self._range_args(chain[-1])
            out.write(f"{pad}__n = len(range({lb}, {stop}, {chain[-1].step}))\n")
            out.write(f"{pad}__count += __n * {len(body)}\n")
            out.write(f"{pad}__ops += __n * {ops_per_iter}\n")
            return
        site_id = self._register_site(slots)
        collapsed = [loop.var for loop in chain]
        ragged = [
            loop.lb.depends_on(collapsed[:depth]) or loop.ub.depends_on(collapsed[:depth])
            for depth, loop in enumerate(chain)
        ]
        carried = [
            var
            for i, var in enumerate(collapsed)
            if any(
                loop.lb.depends_on((var,)) or loop.ub.depends_on((var,))
                for loop in chain[i + 1 :]
            )
        ]
        forms = [self.layout[ref.array].address_form(ref, self.env) for ref, _, _ in slots]
        forms += [Affine.var(var) for var in carried]
        width = len(forms)
        columns = {var: f"__P[:, {len(slots) + i}]" for i, var in enumerate(carried)}
        base = [
            Affine.build({n: c for n, c in form.terms if n not in collapsed}, form.const)
            for form in forms
        ]
        if all(form.is_constant() for form in base):
            base_src = self._const([form.const for form in base])
        else:
            exprs = ", ".join(_affine_expr(form, self.env) for form in base)
            base_src = f"_np.array(({exprs},), dtype=_np.int64)"

        out.write(f"{pad}# collapsed {', '.join(collapsed)}\n")
        for depth, loop in enumerate(chain):
            var, step = loop.var, loop.step
            coeffs = [form.coeff(var) for form in forms]
            scaled = f"{var}[:, None] * {self._const(coeffs)}" if any(coeffs) else None
            if not ragged[depth]:
                lb, stop = self._range_args(loop)
                out.write(f"{pad}{var} = _np.arange({lb}, {stop}, {step}, dtype=_np.int64)\n")
                if depth == 0 and scaled:
                    rows = f"{base_src} + {scaled}"
                elif depth == 0:
                    rows = f"_np.repeat({base_src}[None, :], {var}.shape[0], axis=0)"
                elif scaled:
                    rows = f"(__P[:, None, :] + {scaled}).reshape(-1, {width})"
                else:
                    rows = f"_np.repeat(__P, {var}.shape[0], axis=0)"
            else:
                lo = _affine_expr(loop.lb, self.env, columns)
                hi = _affine_expr(loop.ub, self.env, columns)
                trips = f"{hi} - __lo + 1" if step == 1 else f"({hi} - __lo + {step}) // {step}"
                times = "" if step == 1 else f"{step} * "
                out.write(f"{pad}__lo = {lo}\n")
                out.write(f"{pad}__t = _np.maximum({trips}, 0)\n")
                out.write(
                    f"{pad}{var} = _np.repeat(__lo - {times}(_np.cumsum(__t) - __t), __t)"
                    f" + {times}_np.arange(__t.sum(), dtype=_np.int64)\n"
                )
                rows = "_np.repeat(__P, __t, axis=0)" + (f" + {scaled}" if scaled else "")
            out.write(f"{pad}__P = {rows}\n")
        stream = "__P.ravel()" if width == len(slots) else f"__P[:, :{len(slots)}].ravel()"
        inner = pad + "    "
        out.write(f"{pad}__n = __P.shape[0]\n")
        out.write(f"{pad}if __n:\n")
        out.write(f"{inner}__count += __n * {len(body)}\n")
        out.write(f"{inner}__ops += __n * {ops_per_iter}\n")
        out.write(f"{inner}__vec({site_id}, {stream})\n")
