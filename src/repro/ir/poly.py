"""Multivariate polynomials with rational coefficients.

One type serves two consumers:

* the cost model — ``LoopCost`` values are polynomials in the symbolic
  problem sizes, e.g. matrix multiply's column totals ``2n^3 + n^2``
  and ``1/2 n^3 + n^2`` from Figure 2 of the paper, compared by their
  dominating terms (:meth:`Poly.magnitude`);
* exact iteration counting (:mod:`repro.locality.polysum`) — trip
  counts of triangular loops are polynomials in the outer indices,
  summed with Faulhaber's formulas.

Enough machinery for degree-bounded closed forms, far short of a
computer-algebra system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.errors import PolySumError, ReproError
from repro.ir.affine import Affine

__all__ = ["Poly"]

#: Monomial: sorted tuple of (name, power); () is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

#: Symbols are compared by evaluating at this magnitude; large enough that
#: the dominating term decides, per the paper's §4.1.
_DOMINANT_MAGNITUDE = 10**6


class Poly:
    """Multivariate polynomial with Fraction coefficients (immutable)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned = {
            m: Fraction(c) for m, c in (terms or {}).items() if c != 0
        }
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    @staticmethod
    def constant(value) -> "Poly":
        return Poly({(): Fraction(value)})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    @staticmethod
    def from_affine(form: Affine) -> "Poly":
        terms: dict[Monomial, Fraction] = {(): Fraction(form.const)}
        for name, coeff in form.terms:
            terms[((name, 1),)] = Fraction(coeff)
        return Poly(terms)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.constant(-other))

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                powers: dict[str, int] = {}
                for name, p in m1 + m2:
                    powers[name] = powers.get(name, 0) + p
                mono = tuple(sorted(powers.items()))
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __truediv__(self, k: "int | Fraction") -> "Poly":
        if k == 0:
            raise ReproError("division of a polynomial by zero")
        return Poly({m: c / k for m, c in self.terms.items()})

    def evaluate(self, env: Mapping[str, int]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for name, power in mono:
                if name not in env:
                    raise PolySumError(f"unbound variable {name!r}")
                value *= Fraction(env[name]) ** power
            total += value
        return total

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        """Replace ``name`` with a polynomial (for x = lb + s*t rewrites)."""
        out = Poly()
        for mono, coeff in self.terms.items():
            piece = Poly.constant(coeff)
            for n, power in mono:
                base = replacement if n == name else Poly.var(n)
                for _ in range(power):
                    piece = piece * base
            out = out + piece
        return out

    @property
    def names(self) -> frozenset[str]:
        return frozenset(n for mono in self.terms for n, _ in mono)

    @property
    def degree(self) -> int:
        return max((sum(p for _, p in mono) for mono in self.terms), default=0)

    def magnitude(self) -> float:
        """Comparison key: float value with every symbol at a large magnitude.

        Constants compare exactly; symbolic terms dominate according to
        their degree — the paper's dominating-term comparison. Terms are
        summed in sorted order, so equal polynomials give equal floats.
        """
        total = 0.0
        for mono, coeff in sorted(self.terms.items()):
            value = float(coeff)
            for _name, power in mono:
                value *= float(_DOMINANT_MAGNITUDE) ** power
            total += value
        return total

    # ------------------------------------------------------------------
    # Display: "5/2 N^3 + N^2 + 2", highest degree first
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda t: (sum(p for _, p in t[0]), t[0]),
            reverse=True,
        )
        parts = []
        for mono, coeff in ordered:
            body = "*".join(
                name if power == 1 else f"{name}^{power}" for name, power in mono
            )
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff} {body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self})"
