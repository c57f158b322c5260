"""Loop-nest interpreter: evaluates values and emits an address trace.

The interpreter serves two roles the paper's testbed served:

* **semantics**: it computes real floating-point results, so tests can
  assert that a transformed program produces the same values as the
  original (our strongest check on transformation correctness);
* **tracing**: every array access is reported (reads before the write,
  left-to-right) to a consumer — typically a cache simulator — giving the
  trace-driven hit rates of Table 4 and the cycle model of Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.ir.expr import Bin, Call, Const, Expr, INTRINSICS, Ref, Sym, Var
from repro.ir.nodes import Assign, Loop, Program
from repro.exec.layout import MemoryLayout
from repro.obs import get_obs

__all__ = ["AccessEvent", "Interpreter", "run_program", "default_init"]


@dataclass(frozen=True)
class AccessEvent:
    """One dynamic array access."""

    array: str
    address: int
    size: int
    write: bool
    sid: int


def default_init(name: str, extents: tuple[int, ...]) -> np.ndarray:
    """Deterministic, strictly positive initial data.

    Values are small and varied so reuse patterns are realistic and
    divisions are safe; diagonal-ish dominance is the suite's job where
    algorithms (like Cholesky) need it.
    """
    count = math.prod(extents)
    seed = sum(ord(c) for c in name) % 97
    flat = ((np.arange(count, dtype=np.float64) * 13 + seed) % 101) / 101.0 + 0.5
    return flat.reshape(extents, order="F") if extents else flat.reshape(())


class Interpreter:
    """Executes a program over its parameter values.

    Args:
        program: the IR program to run (``program.with_params(...)``
            runs it at another size).
        on_access: optional callback receiving every :class:`AccessEvent`.
        init: per-array initializer ``(name, extents) -> ndarray``;
            defaults to :func:`default_init`.
        check_values: raise on NaN/inf appearing in computed values.
    """

    def __init__(
        self,
        program: Program,
        on_access: Callable[[AccessEvent], None] | None = None,
        init: Callable[[str, tuple[int, ...]], np.ndarray] | None = None,
        check_values: bool = True,
    ):
        self.program = program
        self.env = program.param_env
        self.layout = MemoryLayout.for_program(program)
        self.on_access = on_access
        self.check_values = check_values
        init = init or default_init
        self.arrays: dict[str, np.ndarray] = {}
        for decl in program.arrays:
            extents = decl.extents(self.env)
            data = np.array(init(decl.name, extents), dtype=np.float64)
            if tuple(data.shape) != extents:
                raise ExecutionError(
                    f"initializer for {decl.name} produced shape {data.shape}, "
                    f"expected {extents}"
                )
            self.arrays[decl.name] = data
        self.statements_executed = 0
        self.operations_executed = 0
        self._current_sid = -1

    # ------------------------------------------------------------------
    def run(self) -> dict[str, np.ndarray]:
        """Execute the whole program; returns the (live) array values.

        Observability happens only at this boundary — never inside the
        per-access hot loop — so a disabled tracer costs nothing there.
        """
        obs = get_obs()
        with obs.span("exec.interp", program=self.program.name):
            for node in self.program.body:
                self._run_node(node, {})
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("exec.runs").inc()
            metrics.counter("exec.statements").inc(self.statements_executed)
            metrics.counter("exec.operations").inc(self.operations_executed)
        return self.arrays

    # ------------------------------------------------------------------
    def _run_node(self, node: "Loop | Assign", bindings: dict[str, int]) -> None:
        if isinstance(node, Assign):
            self._run_statement(node, bindings)
            return
        for value in node.iter_values({**self.env, **bindings}):
            bindings[node.var] = value
            for child in node.body:
                self._run_node(child, bindings)
        bindings.pop(node.var, None)

    def _run_statement(self, stmt: Assign, bindings: dict[str, int]) -> None:
        self._current_sid = stmt.sid
        value, ops = self._eval(stmt.rhs, bindings)
        if self.check_values and not np.isfinite(value):
            raise ExecutionError(
                f"statement {stmt.sid} computed non-finite value {value}"
            )
        self._store(stmt.lhs, value, bindings)
        self.statements_executed += 1
        self.operations_executed += ops + 1

    # ------------------------------------------------------------------
    def _subscripts(self, ref: Ref, bindings: dict[str, int]) -> tuple[int, ...]:
        scope = {**self.env, **bindings}
        return tuple(sub.evaluate(scope) for sub in ref.subs)

    def _load(self, ref: Ref, bindings: dict[str, int]) -> float:
        subs = self._subscripts(ref, bindings)
        layout = self.layout[ref.array]
        # Rank-0 references model compiler temporaries / locals held in
        # registers: they generate no memory traffic.
        if self.on_access is not None and subs:
            self.on_access(
                AccessEvent(
                    ref.array,
                    layout.address(subs),
                    layout.elem_size,
                    False,
                    self._current_sid,
                )
            )
        data = self.arrays[ref.array]
        return float(data[tuple(s - 1 for s in subs)]) if subs else float(data)

    def _store(self, ref: Ref, value: float, bindings: dict[str, int]) -> None:
        subs = self._subscripts(ref, bindings)
        layout = self.layout[ref.array]
        if self.on_access is not None and subs:
            self.on_access(
                AccessEvent(
                    ref.array,
                    layout.address(subs),
                    layout.elem_size,
                    True,
                    self._current_sid,
                )
            )
        if subs:
            self.arrays[ref.array][tuple(s - 1 for s in subs)] = value
        else:
            self.arrays[ref.array][()] = value

    def _eval(self, expr: Expr, bindings: dict[str, int]) -> tuple[float, int]:
        """Evaluate an expression; returns (value, operation count)."""
        if isinstance(expr, Const):
            return float(expr.value), 0
        if isinstance(expr, Sym):
            if expr.name not in self.env:
                raise ExecutionError(f"unbound parameter {expr.name}")
            return float(self.env[expr.name]), 0
        if isinstance(expr, Var):
            if expr.name not in bindings:
                raise ExecutionError(f"unbound index variable {expr.name}")
            return float(bindings[expr.name]), 0
        if isinstance(expr, Ref):
            return self._load(expr, bindings), 0
        if isinstance(expr, Bin):
            left, ops_l = self._eval(expr.left, bindings)
            right, ops_r = self._eval(expr.right, bindings)
            ops = ops_l + ops_r + 1
            if expr.op == "+":
                return left + right, ops
            if expr.op == "-":
                return left - right, ops
            if expr.op == "*":
                return left * right, ops
            if right == 0.0:
                raise ExecutionError(f"division by zero in {expr}")
            return left / right, ops
        if isinstance(expr, Call):
            values = []
            ops = 1
            for arg in expr.args:
                value, arg_ops = self._eval(arg, bindings)
                values.append(value)
                ops += arg_ops
            fn = INTRINSICS[expr.fn]
            try:
                return float(fn(*values)), ops
            except ValueError as exc:
                raise ExecutionError(f"{expr.fn}{tuple(values)}: {exc}") from exc
        raise ExecutionError(f"cannot evaluate {expr!r}")


def run_program(
    program: Program,
    on_access: Callable[[AccessEvent], None] | None = None,
    init: Callable[[str, tuple[int, ...]], np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Convenience wrapper: build an interpreter and run it."""
    return Interpreter(program, on_access, init).run()
