"""Expression trees for statement right-hand sides.

The compiler proper (dependence analysis, cost model, transformations) only
cares about the *array references* inside an expression, whose subscripts
are affine forms. The interpreter additionally evaluates expressions
numerically so that transformation correctness can be checked value-for-value.

The node set is deliberately small: constants, symbolic parameters, loop
index variables, binary arithmetic, intrinsic calls, and array references.
All nodes are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.errors import IRError, NonAffineError
from repro.ir.affine import Affine, as_affine

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Var",
    "Bin",
    "Call",
    "Ref",
    "INTRINSICS",
    "walk_refs",
]

#: Intrinsic functions the interpreter understands.
INTRINSICS: dict[str, Callable[..., float]] = {
    "SQRT": math.sqrt,
    "ABS": abs,
    "MIN": min,
    "MAX": max,
    "EXP": math.exp,
    "LOG": math.log,
    "SIN": math.sin,
    "COS": math.cos,
    "MOD": lambda a, b: math.fmod(a, b),
}

_BINOPS = frozenset({"+", "-", "*", "/"})


class Expr:
    """Abstract base for expression nodes."""

    __slots__ = ()

    # Operator sugar so tests/examples can write ``a + b * c`` directly.
    def __add__(self, other: "Expr | float | int") -> "Bin":
        return Bin("+", self, _coerce(other))

    def __radd__(self, other: "Expr | float | int") -> "Bin":
        return Bin("+", _coerce(other), self)

    def __sub__(self, other: "Expr | float | int") -> "Bin":
        return Bin("-", self, _coerce(other))

    def __rsub__(self, other: "Expr | float | int") -> "Bin":
        return Bin("-", _coerce(other), self)

    def __mul__(self, other: "Expr | float | int") -> "Bin":
        return Bin("*", self, _coerce(other))

    def __rmul__(self, other: "Expr | float | int") -> "Bin":
        return Bin("*", _coerce(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "Bin":
        return Bin("/", self, _coerce(other))

    def __rtruediv__(self, other: "Expr | float | int") -> "Bin":
        return Bin("/", _coerce(other), self)

    def __neg__(self) -> "Bin":
        return Bin("-", Const(0), self)

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()


def _coerce(value: "Expr | float | int") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise IRError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float | int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Sym(Expr):
    """A symbolic program parameter (e.g. the problem size ``N``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var(Expr):
    """A loop index variable occurrence in a value position."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Bin(Expr):
    """A binary arithmetic operation (``+ - * /``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise IRError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call(Expr):
    """An intrinsic function call (``SQRT``, ``ABS``, ...)."""

    fn: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.fn.upper() not in INTRINSICS:
            raise IRError(f"unknown intrinsic {self.fn!r}")
        object.__setattr__(self, "fn", self.fn.upper())

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Ref(Expr):
    """An array reference ``A(f1, f2, ...)`` with affine subscripts.

    Subscripts are ordered like Fortran source: the *first* subscript is the
    one that varies fastest in memory (column-major layout). A scalar
    variable is modelled as a rank-0 reference (empty subscript tuple).
    """

    array: str
    subs: tuple[Affine, ...]

    @staticmethod
    def make(array: str, *subs: "Affine | int | str") -> "Ref":
        return Ref(array, tuple(as_affine(s) for s in subs))

    @property
    def rank(self) -> int:
        return len(self.subs)

    def rename_indices(self, mapping: Mapping[str, str]) -> "Ref":
        return Ref(self.array, tuple(s.rename(mapping) for s in self.subs))

    def substitute(self, name: str, replacement: "Affine | int") -> "Ref":
        return Ref(self.array, tuple(s.substitute(name, replacement) for s in self.subs))

    def __str__(self) -> str:
        if not self.subs:
            return self.array
        return f"{self.array}({', '.join(map(str, self.subs))})"


def affine_to_expr(form: Affine) -> Expr:
    """Lower an affine form back to an expression tree.

    Used when a substitution must land in a *value* position (e.g.
    unroll-and-jam rewriting ``A(I) = I`` copies to ``A(I+1) = I + 1``).
    """
    expr: Expr | None = None
    for name, coeff in form.terms:
        term: Expr = Var(name) if coeff == 1 else Bin("*", Const(coeff), Var(name))
        expr = term if expr is None else Bin("+", expr, term)
    if expr is None:
        return Const(form.const)
    if form.const > 0:
        expr = Bin("+", expr, Const(form.const))
    elif form.const < 0:
        expr = Bin("-", expr, Const(-form.const))
    return expr


def walk_refs(expr: Expr) -> Iterator[Ref]:
    """Yield every :class:`Ref` in ``expr`` in left-to-right order."""
    if isinstance(expr, Ref):
        yield expr
    for child in expr.children():
        yield from walk_refs(child)


def expr_to_affine(expr: Expr) -> Affine:
    """Convert an expression tree to an affine form when possible.

    Used by the frontend to lower subscript and bound expressions.

    Raises:
        NonAffineError: for non-linear shapes, calls, or array references.
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, float) and not expr.value.is_integer():
            raise NonAffineError(f"non-integer constant {expr.value} in affine position")
        return Affine.constant(int(expr.value))
    if isinstance(expr, (Sym, Var)):
        return Affine.var(expr.name)
    if isinstance(expr, Bin):
        left = expr_to_affine(expr.left)
        right = expr_to_affine(expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant():
                return right * left.const
            if right.is_constant():
                return left * right.const
            raise NonAffineError(f"non-linear product {expr}")
        if expr.op == "/":
            if right.is_constant() and right.const != 0:
                quotient, remainder = divmod_affine(left, right.const)
                if remainder is not None:
                    raise NonAffineError(f"non-exact division {expr}")
                return quotient
            raise NonAffineError(f"non-constant division {expr}")
    raise NonAffineError(f"{expr} is not affine")


def divmod_affine(form: Affine, k: int) -> tuple[Affine | None, int | None]:
    """Divide an affine form by ``k`` exactly.

    Returns ``(quotient, None)`` when every coefficient and the constant are
    divisible by ``k``, else ``(None, -1)``.
    """
    if any(c % k for _, c in form.terms) or form.const % k:
        return None, -1
    return Affine.build({n: c // k for n, c in form.terms}, form.const // k), None
