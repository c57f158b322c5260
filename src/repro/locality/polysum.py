"""Exact nested-iteration counting via polynomial summation.

The analytic locality predictor needs *exact* dynamic access counts for
loop chains with affine (possibly triangular) bounds — trace mass must
equal predicted mass, or every downstream ratio drifts. Trip counts of
triangular loops are polynomials in the outer indices, so the count of a
whole chain is obtained by summing polynomials over affine ranges
(Faulhaber's formulas), innermost-out.

The polynomials are :class:`repro.ir.poly.Poly`, the same type the
cost model's ``LoopCost`` values use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from repro.errors import PolySumError
from repro.ir.poly import Poly

__all__ = ["PolySumError", "chain_count", "weighted_chain_count"]


@lru_cache(maxsize=32)
def _power_sum(k: int) -> tuple[Fraction, ...]:
    """Coefficients of F_k(n) = sum_{x=1..n} x^k as a degree-(k+1) poly.

    Returned low-order first: F_k(n) = sum_i coef[i] * n^i. Derived by
    solving the forward-difference recurrence rather than hard-coding
    Bernoulli numbers, so any degree the nest analysis reaches is
    supported.
    """
    # F_k(n) - F_k(n-1) = n^k and F_k(0) = 0 determine the polynomial.
    # Solve for coefficients c_1..c_{k+1} via the binomial expansion of
    # F_k(n) - F_k(n-1).
    from math import comb

    size = k + 2  # coefficients c_0..c_{k+1}; c_0 = 0
    # difference[j] = coefficient of n^j in F_k(n) - F_k(n-1)
    # = sum_i c_i * (n^i - (n-1)^i) = sum_i c_i * sum_{j<i} comb(i,j) (-1)^(i-1-j) n^j
    # Match with n^k. Solve triangular system top-down (i = k+1 .. 1).
    coefs = [Fraction(0)] * size
    target = [Fraction(0)] * size
    target[k] = Fraction(1)
    for i in range(size - 1, 0, -1):
        # Highest-degree contribution of c_i to the difference is at n^(i-1)
        # with factor comb(i, i-1) = i.
        coefs[i] = target[i - 1] / i
        for j in range(i - 1):
            sign = -1 if (i - 1 - j) % 2 else 1
            target[j] -= coefs[i] * comb(i, j) * sign
    return tuple(coefs)


def _sum_powers(k: int, bound: Poly) -> Poly:
    """``sum_{x=1}^{bound} x^k`` with a polynomial upper bound."""
    coefs = _power_sum(k)
    total = Poly()
    power = Poly.constant(1)
    for coeff in coefs:
        if coeff:
            total = total + power * coeff
        power = power * bound
    return total


def sum_over_range(body: Poly, var: str, lb: Poly, ub: Poly) -> Poly:
    """``sum_{var=lb}^{ub} body`` assuming ``lb <= ub + 1`` pointwise.

    The bounds must not mention ``var``. The empty-range case
    ``ub = lb - 1`` evaluates to zero exactly; ranges emptier than that
    are outside the closed form (callers guard with interval checks).
    """
    if var in lb.names or var in ub.names:
        raise PolySumError(f"bound of {var} depends on itself")
    # Group body terms by the power of `var`.
    by_power: dict[int, Poly] = {}
    for mono, coeff in body.terms.items():
        power = 0
        rest: list[tuple[str, int]] = []
        for name, p in mono:
            if name == var:
                power = p
            else:
                rest.append((name, p))
        rest_mono = tuple(rest)
        by_power.setdefault(power, Poly())
        by_power[power] = by_power[power] + Poly({rest_mono: coeff})
    total = Poly()
    shifted_lb = lb - Poly.constant(1)
    for power, factor in by_power.items():
        piece = _sum_powers(power, ub) - _sum_powers(power, shifted_lb)
        total = total + factor * piece
    return total


def _loop_range(loop) -> tuple[Poly, Poly, str]:
    """Normalized (lb, ub, var) with step folded in; step +-1 only."""
    if loop.step == 1:
        return Poly.from_affine(loop.lb), Poly.from_affine(loop.ub), loop.var
    if loop.step == -1:
        # DO v = lb, ub, -1 iterates ub..lb; the multiset of values is the
        # reversed range, and counting does not care about order.
        return Poly.from_affine(loop.ub), Poly.from_affine(loop.lb), loop.var
    raise PolySumError(f"step {loop.step} outside the exact closed forms")


def chain_count(chain, env: Mapping[str, int]) -> int:
    """Exact number of iterations of a loop chain (outermost first).

    Raises:
        PolySumError: non-unit steps, self-referential bounds, or ranges
            that can go negative (where the closed form is invalid).
    """
    return weighted_chain_count(chain, env)


def weighted_chain_count(
    chain,
    env: Mapping[str, int],
    modes: Mapping[str, str] | None = None,
) -> int:
    """Exact weighted iteration count of a chain (outermost first).

    ``modes`` maps a loop var to one of:

    * ``"full"`` (default) — the loop contributes its trip count;
    * ``"pairs"`` — the loop contributes (trip - 1): the number of
      *consecutive-iteration pairs*, used to count reuse events carried
      by that loop;
    * ``"once"`` — the loop contributes 1 when its range is non-empty
      (evaluated at its lower bound), used for levels whose sweep sits
      inside a reuse window.

    The result is exact for affine bounds with steps of +-1; anything
    else raises :class:`PolySumError`.
    """
    modes = modes or {}
    body = Poly.constant(1)
    for loop in reversed(list(chain)):
        lb, ub, var = _loop_range(loop)
        mode = modes.get(var, "full")
        if mode == "once":
            body = body.substitute(var, lb)
            continue
        summed = sum_over_range(body, var, lb, ub)
        if mode == "pairs":
            # pairs = full sum minus one body evaluation (at the first
            # iteration): sum_{v=lb+1}^{ub} body(v).
            summed = summed - body.substitute(var, lb)
        body = summed
    # All loop vars are bound by now; parameters come from env.
    value = body.evaluate(env)
    if value.denominator != 1:
        raise PolySumError(f"non-integral count {value}")
    result = int(value)
    if result < 0:
        raise PolySumError(f"negative count {result}: range underflow")
    return result
