"""Affine integer forms over named variables.

An :class:`Affine` is a linear combination ``sum(c_i * name_i) + const``
with integer coefficients. Names may refer either to loop index variables
(``I``, ``J``, ...) or to symbolic program parameters (``N``, ``M``, ...);
the IR does not distinguish them here — context (the set of enclosing loop
indices) decides which is which.

Affine forms are the currency of the whole compiler: array subscripts, loop
bounds, and dependence-test inputs are all affine. They are immutable and
hashable so they can be used as dict keys and set members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import NonAffineError

__all__ = ["Affine", "AffineLike", "as_affine"]

# Things accepted wherever an Affine is expected.
AffineLike = "Affine | int | str"


@dataclass(frozen=True)
class Affine:
    """An immutable affine form ``sum(coeff * name) + const``.

    ``terms`` is a sorted tuple of ``(name, coeff)`` pairs with no zero
    coefficients and no duplicate names; ``const`` is a plain int.
    Use :meth:`build` (or the arithmetic operators) rather than the raw
    constructor so the canonical-form invariants hold.
    """

    terms: tuple[tuple[str, int], ...]
    const: int

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(coeffs: Mapping[str, int] | None = None, const: int = 0) -> "Affine":
        """Create an affine form from a coefficient mapping, canonicalized."""
        coeffs = coeffs or {}
        terms = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return Affine(terms, int(const))

    @staticmethod
    def constant(value: int) -> "Affine":
        """The constant form ``value``."""
        return Affine((), int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        """The form ``coeff * name``."""
        return Affine.build({name: coeff})

    @staticmethod
    def parse(text: str) -> "Affine":
        """Parse a simple affine string: ``"I"``, ``"I-1"``, ``"2*K+3"``.

        Grammar: sum of terms; a term is ``[int *] name`` or ``int``.
        Whitespace is ignored. Raises :class:`NonAffineError` on anything
        else (no parentheses, no products of variables).
        """
        import re

        text = text.replace(" ", "")
        if not text:
            raise NonAffineError("empty affine expression")
        token_re = re.compile(r"([+-]?)(\d+\*)?([A-Za-z_][A-Za-z_0-9]*)|([+-]?)(\d+)")
        pos = 0
        result = Affine.constant(0)
        while pos < len(text):
            match = token_re.match(text, pos)
            if not match or match.start() != pos:
                raise NonAffineError(f"cannot parse affine expression {text!r}")
            if match.group(3):  # variable term
                sign = -1 if match.group(1) == "-" else 1
                coeff = int(match.group(2)[:-1]) if match.group(2) else 1
                result = result + Affine.var(match.group(3), sign * coeff)
            else:  # constant term
                sign = -1 if match.group(4) == "-" else 1
                result = result + sign * int(match.group(5))
            pos = match.end()
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 when absent)."""
        for n, c in self.terms:
            if n == name:
                return c
        return 0

    @property
    def names(self) -> frozenset[str]:
        """All variable names with non-zero coefficient."""
        return frozenset(n for n, _ in self.terms)

    def is_constant(self) -> bool:
        """True when the form has no variable terms."""
        return not self.terms

    def constant_value(self) -> int:
        """The integer value of a constant form.

        Raises:
            NonAffineError: if the form still has variable terms.
        """
        if self.terms:
            raise NonAffineError(f"{self} is not a constant")
        return self.const

    def depends_on(self, names: Iterable[str]) -> bool:
        """True when any of ``names`` appears with non-zero coefficient."""
        mine = self.names
        return any(n in mine for n in names)

    # ------------------------------------------------------------------
    # Arithmetic (returns new canonical forms)
    # ------------------------------------------------------------------
    def _coeff_dict(self) -> dict[str, int]:
        return dict(self.terms)

    def __add__(self, other: "Affine | int") -> "Affine":
        other = as_affine(other)
        coeffs = self._coeff_dict()
        for n, c in other.terms:
            coeffs[n] = coeffs.get(n, 0) + c
        return Affine.build(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine.build({n: -c for n, c in self.terms}, -self.const)

    def __sub__(self, other: "Affine | int") -> "Affine":
        return self + (-as_affine(other))

    def __rsub__(self, other: "Affine | int") -> "Affine":
        return as_affine(other) + (-self)

    def __mul__(self, k: int) -> "Affine":
        if isinstance(k, Affine):
            if k.is_constant():
                k = k.const
            elif self.is_constant():
                self, k = k, self.const
            else:
                raise NonAffineError(f"product of {self} and {k} is not affine")
        return Affine.build({n: c * k for n, c in self.terms}, self.const * k)

    __rmul__ = __mul__

    def substitute(self, name: str, replacement: "Affine | int") -> "Affine":
        """Replace every occurrence of ``name`` with ``replacement``."""
        c = self.coeff(name)
        if c == 0:
            return self
        coeffs = self._coeff_dict()
        del coeffs[name]
        return Affine.build(coeffs, self.const) + as_affine(replacement) * c

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        """Rename variables; names absent from ``mapping`` are kept."""
        coeffs: dict[str, int] = {}
        for n, c in self.terms:
            new = mapping.get(n, n)
            coeffs[new] = coeffs.get(new, 0) + c
        return Affine.build(coeffs, self.const)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a full binding of every variable in the form.

        Raises:
            NonAffineError: if a variable is unbound.
        """
        total = self.const
        for n, c in self.terms:
            if n not in env:
                raise NonAffineError(f"unbound variable {n!r} in {self}")
            total += c * int(env[n])
        return total

    def partial_evaluate(self, env: Mapping[str, int]) -> "Affine":
        """Substitute the bindings present in ``env``, leaving the rest."""
        result = self
        for n in list(result.names):
            if n in env:
                result = result.substitute(n, int(env[n]))
        return result

    def interval(
        self,
        ranges: Mapping[str, tuple[int, int]],
        default: tuple[int, int] | None = None,
    ) -> tuple[int, int]:
        """The ``(lo, hi)`` hull of the form when each name ranges over
        ``ranges[name]`` (both ends inclusive, ``lo <= hi``).

        Names missing from ``ranges`` take ``default``.

        Raises:
            KeyError: a name has no range and there is no default.
        """
        lo = hi = self.const
        for n, c in self.terms:
            bounds = ranges.get(n, default)
            if bounds is None:
                raise KeyError(n)
            a, b = c * bounds[0], c * bounds[1]
            lo, hi = lo + min(a, b), hi + max(a, b)
        return lo, hi

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in self.terms:
            if c == 1:
                term = n
            elif c == -1:
                term = f"-{n}"
            else:
                term = f"{c}*{n}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self.const or not parts:
            if parts and self.const >= 0:
                parts.append(f"+{self.const}")
            else:
                parts.append(str(self.const))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine({self})"


def as_affine(value: "Affine | int | str") -> Affine:
    """Coerce ``value`` to an :class:`Affine`.

    ints become constants, strings become single variables, and affine
    forms pass through unchanged.
    """
    if isinstance(value, Affine):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise NonAffineError("booleans are not affine values")
    if isinstance(value, int):
        return Affine.constant(value)
    if isinstance(value, str):
        if value.isidentifier():
            return Affine.var(value)
        return Affine.parse(value)
    raise NonAffineError(f"cannot interpret {value!r} as an affine form")
