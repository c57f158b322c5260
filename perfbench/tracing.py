"""Span recording for the traced run, from the benchmark's own files.

Nothing under ``src/`` changes. :meth:`Tracer.install` replaces public functions
of the ``repro`` modules with recording wrappers *at the module attribute
their callers look them up by* (``module.function`` at call time, or a
function-local ``from module import function``), and
:meth:`Tracer.uninstall` puts the originals back. Each span carries a name, start, end, parent
and op id; spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the durations of its
direct children. Spans nest strictly within one thread, so the children
never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


def _count_parse(tracer, args, result) -> None:
    tracer.counters["frontend.parse.bytes"] += len(args[0]) if args else 0


def _count_block(tracer, args, result) -> None:
    tracer.counters["exec.accesses"] += len(args[1])
    tracer.counters["exec.blocks"] += 1


def _count_profile(tracer, args, result) -> None:
    tracer.counters["cache.reuse_profile.accesses"] += result.accesses


#: (module, attribute, span name, probe). ``Class.method`` attributes
#: patch the class. One span name may have several lookup sites.
PATCHES = (
    ("repro.frontend.parser", "parse_program", "frontend.parse", _count_parse),
    ("repro.frontend", "parse_program", "frontend.parse", _count_parse),
    ("repro.server.handlers", "parse_program", "frontend.parse", _count_parse),
    ("repro.ir.validate", "validate_program", "ir.validate", None),
    ("repro.lint.verifyfix", "validate_program", "ir.validate", None),
    ("repro.ir.pretty", "pretty_program", "ir.pretty", None),
    ("repro.ir.canon", "pretty_program", "ir.pretty", None),
    ("repro.model.oracle", "pretty_program", "ir.pretty", None),
    ("repro.lint.engine", "pretty_program", "ir.pretty", None),
    ("repro.server.handlers", "pretty_program", "ir.pretty", None),
    ("repro.server.app", "pretty_program", "ir.pretty", None),
    ("repro.dependence.pairs", "region_dependences", "dependence.region", None),
    ("repro.dependence.parallel", "region_dependences", "dependence.region", None),
    ("repro.transforms.fusion", "region_dependences", "dependence.region", None),
    ("repro.transforms.distribution", "region_dependences", "dependence.region", None),
    ("repro.transforms.legality", "region_dependences", "dependence.region", None),
    ("repro.model.nest", "region_dependences", "dependence.region", None),
    ("repro.lint.checks", "region_dependences", "dependence.region", None),
    ("repro.transforms.fusion", "analyze_ref_pair", "dependence.pair", None),
    ("repro.model.loopcost", "CostModel.nest_info", "model.nestinfo", None),
    ("repro.model.loopcost", "CostModel.memory_order", "model.order", None),
    ("repro.model.oracle", "AnalyticOracle.cost", "model.oracle", None),
    ("repro.transforms.compound", "compound", "transforms.compound", None),
    ("repro.transforms", "compound", "transforms.compound", None),
    ("repro.locality.analytic", "predict_locality", "locality.predict", None),
    ("repro.locality", "predict_locality", "locality.predict", None),
    ("repro.exec.timing", "simulate", "exec.simulate", None),
    ("repro.exec.blocktrace", "compile_block_trace", "exec.blocktrace.compile", None),
    ("repro.exec.blocktrace", "CompiledBlockTrace.run", "exec.blocktrace.run", None),
    ("repro.cache.cache", "SetAssocCache.access_block", "cache.access_block", _count_block),
    ("repro.cache.reuse", "reuse_profile", "cache.reuse_profile", _count_profile),
    ("repro.cache", "reuse_profile", "cache.reuse_profile", _count_profile),
    ("repro.lint.engine", "lint_program", "lint.program", None),
    ("repro.lint", "lint_program", "lint.program", None),
    ("repro.verify.depforce", "brute_force_dependences", "verify.depforce", None),
    ("repro.verify.oracles", "run_state", "verify.state", None),
    ("repro.autotune.search", "autotune", "autotune", None),
    ("repro.autotune", "autotune", "autotune", None),
    ("repro.server.app", "execute", "server.execute", None),
)

#: The root span of one op; its self time is the part no span covers.
OP_SPAN = "op"


class Tracer:
    """In-memory span recorder; thread-safe under the interpreter lock
    (``list.append`` and ``next`` on a counter are atomic)."""

    def __init__(self) -> None:
        # (id, name, start_ns, end_ns, parent, op, raised)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn, args=(), kwargs=None, op=None, probe=None):
        """Call ``fn`` inside a span; ``op`` starts a new op id."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        op_id = op if op is not None else (stack[-1][1] if stack else None)
        stack.append((span_id, op_id))
        raised = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op_id, raised))
        if probe is not None:
            probe(self, args, result)
        return result

    def wrap(self, name: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.run(name, fn, args, kwargs, probe=probe)

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, probe in PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span, original, probe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Span name -> {'self_ns', 'calls', 'raised'} over every span."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        table: dict[str, dict] = defaultdict(
            lambda: {"self_ns": 0, "calls": 0, "raised": 0}
        )
        for span_id, name, start, end, _, _, raised in self.spans:
            row = table[name]
            row["self_ns"] += (end - start) - child_ns.get(span_id, 0)
            row["calls"] += 1
            row["raised"] += int(raised)
        return dict(table)

    def op_wall_ns(self) -> int:
        return sum(e - s for _, n, s, e, _, _, _ in self.spans if n == OP_SPAN)

    def write(self, path: str) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "raised")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_table(tracer: Tracer, ops: int, overhead_pct: float, note: str = "") -> str:
    """The ranked "where the time goes" table of one traced run."""
    rows = tracer.self_times()
    op_ns = max(tracer.op_wall_ns(), 1)
    ranked = sorted(rows.items(), key=lambda item: -item[1]["self_ns"])
    lines = [
        f"where the time goes ({ops} traced ops; self time = span minus "
        "its child spans)",
        f"{'layer span':<26}{'self ms/op':>12}{'share':>8}{'calls/op':>10}",
    ]
    for name, row in ranked:
        label = "(unspanned part of op)" if name == OP_SPAN else name
        lines.append(
            f"{label:<26}{row['self_ns'] / 1e6 / ops:>12.3f}"
            f"{100.0 * row['self_ns'] / op_ns:>7.1f}%"
            f"{row['calls'] / ops:>10.2f}"
        )
    lines.append(f"tracing overhead vs untraced ops: {overhead_pct:+.1f}% CPU")
    if note:
        lines.append(note)
    return "\n".join(lines)
