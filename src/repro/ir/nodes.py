"""Structural IR nodes: statements, loops, declarations, programs.

A :class:`Program` is a list of top-level nodes; each node is either an
:class:`Assign` statement or a :class:`Loop` whose body is again a list of
nodes. Loops carry affine bounds and an integer step, exactly the shape the
paper's analyses expect (Fortran ``DO`` loops).

Nodes are immutable; transformations build new trees. Statements carry a
stable ``sid`` so that a statement's identity survives transformation (the
statistics collectors rely on this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import IRError
from repro.ir.affine import Affine, as_affine
from repro.ir.expr import Expr, Ref, walk_refs
from repro.ir.span import Span

__all__ = ["Assign", "Loop", "ArrayDecl", "Program", "Node"]


@dataclass(frozen=True)
class Assign:
    """An assignment statement ``lhs = rhs``.

    ``lhs`` is an array (or rank-0 scalar) reference; ``rhs`` an expression.
    ``sid`` identifies the statement across transformations. ``span`` is
    the source region the frontend parsed this statement from (None for
    programmatically built or transformed trees); it is provenance only
    and excluded from equality/hashing.
    """

    lhs: Ref
    rhs: Expr
    sid: int = -1
    span: Span | None = field(default=None, compare=False, repr=False)

    @property
    def reads(self) -> tuple[Ref, ...]:
        """Array references read by this statement (RHS occurrences)."""
        return tuple(walk_refs(self.rhs))

    @property
    def writes(self) -> tuple[Ref, ...]:
        return (self.lhs,)

    @property
    def refs(self) -> tuple[Ref, ...]:
        """All references: writes first, then reads."""
        return self.writes + self.reads

    def with_sid(self, sid: int) -> "Assign":
        return replace(self, sid=sid)

    def rename_indices(self, mapping: Mapping[str, str]) -> "Assign":
        """Rename loop index variables throughout the statement."""
        from repro.ir.visit import rename_expr_indices

        return Assign(
            self.lhs.rename_indices(mapping),
            rename_expr_indices(self.rhs, mapping),
            self.sid,
            self.span,
        )

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


Node = "Loop | Assign"


def _trip(span: int, step: int) -> int:
    """Iterations of ``DO v = lb, lb + span, step`` (Fortran floor
    division), clamped at 0 for empty ranges."""
    return max((span + step) // step, 0)


@dataclass(frozen=True)
class Loop:
    """A ``DO var = lb, ub, step`` loop with a body of nodes.

    Bounds are inclusive, following Fortran. ``step`` must be a non-zero
    integer; negative steps encode reversed loops.
    """

    var: str
    lb: Affine
    ub: Affine
    step: int
    body: tuple["Loop | Assign", ...]
    #: Source region of the DO header (provenance only; never compared).
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.step == 0:
            raise IRError(f"loop {self.var} has zero step")
        if not self.var:
            raise IRError("loop variable must be named")

    @staticmethod
    def make(
        var: str,
        lb: "Affine | int | str",
        ub: "Affine | int | str",
        body: Sequence["Loop | Assign"],
        step: int = 1,
    ) -> "Loop":
        return Loop(var, as_affine(lb), as_affine(ub), step, tuple(body))

    def with_body(self, body: Sequence["Loop | Assign"]) -> "Loop":
        return replace(self, body=tuple(body))

    def trip_count(self, env: Mapping[str, int]) -> int:
        """Concrete number of iterations under ``env`` (0 when empty)."""
        lb = self.lb.evaluate(env)
        return _trip(self.ub.evaluate(env) - lb, self.step)

    def constant_trip(self, env: Mapping[str, int] | None = None) -> int | None:
        """Number of iterations (0 when empty) when ``ub - lb`` is constant
        after substituting ``env``; None when the span stays symbolic."""
        span = self.ub - self.lb
        if env:
            span = span.partial_evaluate(env)
        return _trip(span.const, self.step) if span.is_constant() else None

    def iter_values(self, env: Mapping[str, int]) -> range:
        """The concrete iteration range under ``env``."""
        lb = self.lb.evaluate(env)
        ub = self.ub.evaluate(env)
        if self.step > 0:
            return range(lb, ub + 1, self.step)
        return range(lb, ub - 1, self.step)

    @property
    def statements(self) -> tuple[Assign, ...]:
        """All statements in the loop, in source order."""
        out: list[Assign] = []
        for node in self.body:
            if isinstance(node, Assign):
                out.append(node)
            else:
                out.extend(node.statements)
        return tuple(out)

    @property
    def inner_loops(self) -> tuple["Loop", ...]:
        """Directly nested loops (not transitively)."""
        return tuple(n for n in self.body if isinstance(n, Loop))

    def is_perfect_nest(self) -> bool:
        """True when this loop heads a perfect nest.

        A nest is perfect when every non-innermost level contains exactly
        one node, which is a loop.
        """
        node: Loop = self
        while True:
            if all(isinstance(c, Assign) for c in node.body):
                return True
            if len(node.body) == 1 and isinstance(node.body[0], Loop):
                node = node.body[0]
                continue
            return False

    def perfect_nest_loops(self) -> tuple["Loop", ...]:
        """The maximal perfectly nested loop chain headed by this loop.

        Always includes ``self``; extends inward while each level has a
        single loop as its only child.
        """
        chain = [self]
        node: Loop = self
        while len(node.body) == 1 and isinstance(node.body[0], Loop):
            node = node.body[0]
            chain.append(node)
        return tuple(chain)

    @property
    def depth(self) -> int:
        """Maximum loop nesting depth of the tree rooted here."""
        inner = [n.depth for n in self.body if isinstance(n, Loop)]
        return 1 + (max(inner) if inner else 0)

    def __str__(self) -> str:
        from repro.ir.pretty import pretty

        return pretty(self)


@dataclass(frozen=True)
class ArrayDecl:
    """An array declaration: name, per-dimension extents, element size.

    Extents are affine (usually a constant or a single symbolic parameter).
    A rank-0 declaration is a scalar. ``elem_size`` is in bytes and feeds
    the address-layout computation; 8 matches REAL*8.
    """

    name: str
    shape: tuple[Affine, ...]
    elem_size: int = 8

    @staticmethod
    def make(name: str, shape: Sequence["Affine | int | str"], elem_size: int = 8) -> "ArrayDecl":
        return ArrayDecl(name, tuple(as_affine(s) for s in shape), elem_size)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def extents(self, env: Mapping[str, int]) -> tuple[int, ...]:
        """Concrete extents under ``env``."""
        return tuple(s.evaluate(env) for s in self.shape)

    def __str__(self) -> str:
        if not self.shape:
            return self.name
        return f"{self.name}({', '.join(map(str, self.shape))})"


@dataclass(frozen=True)
class Program:
    """A whole program: parameters, array declarations, and a node list.

    ``params`` maps symbolic parameter names to their default concrete
    values (the "problem size"); the interpreter and the cost model's
    concrete mode read them. ``arrays`` declares every array referenced by
    the body.
    """

    name: str
    params: tuple[tuple[str, int], ...]
    arrays: tuple[ArrayDecl, ...]
    body: tuple["Loop | Assign", ...]

    @staticmethod
    def make(
        name: str,
        body: Sequence["Loop | Assign"],
        arrays: Iterable[ArrayDecl] = (),
        params: Mapping[str, int] | None = None,
    ) -> "Program":
        prog = Program(
            name,
            tuple(sorted((params or {}).items())),
            tuple(arrays),
            tuple(body),
        )
        return prog.renumbered()

    @property
    def param_env(self) -> dict[str, int]:
        return dict(self.params)

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise IRError(f"array {name!r} not declared in program {self.name!r}")

    def has_array(self, name: str) -> bool:
        return any(decl.name == name for decl in self.arrays)

    @property
    def top_loops(self) -> tuple[Loop, ...]:
        return tuple(n for n in self.body if isinstance(n, Loop))

    @property
    def statements(self) -> tuple[Assign, ...]:
        out: list[Assign] = []
        for node in self.body:
            if isinstance(node, Assign):
                out.append(node)
            else:
                out.extend(node.statements)
        return tuple(out)

    def with_body(self, body: Sequence["Loop | Assign"]) -> "Program":
        return replace(self, body=tuple(body))

    def with_params(self, params: Mapping[str, int]) -> "Program":
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=tuple(sorted(merged.items())))

    def scaled(self, **params: int) -> "Program":
        """A copy with some parameters overridden (e.g. ``prog.scaled(N=64)``)."""
        return self.with_params(params)

    def renumbered(self) -> "Program":
        """Assign fresh consecutive sids to every statement.

        Only used at construction time; transformations preserve sids.
        """
        counter = itertools.count()

        def renumber(node: "Loop | Assign") -> "Loop | Assign":
            if isinstance(node, Assign):
                return node.with_sid(next(counter))
            return node.with_body([renumber(c) for c in node.body])

        return replace(self, body=tuple(renumber(n) for n in self.body))

    def __str__(self) -> str:
        from repro.ir.pretty import pretty_program

        return pretty_program(self)
