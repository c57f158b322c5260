"""Exact nested-iteration counting via polynomial summation.

The analytic locality predictor needs *exact* dynamic access counts for
loop chains with affine (possibly triangular) bounds — trace mass must
equal predicted mass, or every downstream ratio drifts. Trip counts of
triangular loops are polynomials in the outer indices, so the count of a
whole chain is obtained by summing polynomials over affine ranges
(Faulhaber's formulas), innermost-out.

Counting is split in two:

* :func:`compile_chain_count` builds the count once per chain *shape* —
  each loop's ``(var, lb, ub, step)`` plus the weighting modes — as a
  :class:`ChainCount`: a polynomial in the program parameters, left as
  symbols, with the parameter-only conditions it assumes. Shapes are
  memoized in the registered :class:`~repro.model.memo.MemoCache`
  ``locality.chain_count``; a declined shape is cached as well.
* :meth:`ChainCount.evaluate` binds the parameters for one ``env``.

The closed form of one level is valid only where that level's trip
``t = hi - lo + 1`` meets its mode's floor (``t >= 0`` for ``full``,
``t >= 1`` for ``pairs`` and ``once``). The compile step proves each
floor over the enclosing ranges, clips an enclosing range where the
floor fails (those iterations count zero), or declines; see
:func:`compile_chain_count`.

The polynomials are :class:`repro.ir.poly.Poly`, the same type the
cost model's ``LoopCost`` values use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping

from repro.errors import PolySumError
from repro.ir.affine import Affine
from repro.ir.poly import Monomial, Poly
from repro.model.memo import MemoCache

__all__ = [
    "ChainCount",
    "PolySumError",
    "chain_count",
    "compile_chain_count",
    "weighted_chain_count",
]

#: Compiled counts (or declines) keyed by chain shape, never by loop
#: identity: autotuning builds and drops thousands of loops and ids get
#: reused.
_CHAIN_COUNTS = MemoCache("locality.chain_count")

#: Mode -> least trip at which the level's closed form is valid.
_FLOOR = {"full": 0, "pairs": 1, "once": 1}


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
    are outside the closed form (:func:`compile_chain_count` proves or
    clips them away first).
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


# ======================================================================
# Compile step: one ChainCount per chain shape
# ======================================================================


@dataclass(frozen=True)
class ChainCount:
    """A chain's weighted count with the parameters left as symbols.

    ``poly`` is the count; ``checks`` are affine forms over parameters
    only that must each evaluate ``>= 0`` for ``poly`` to be exact.
    ``numerators`` and ``denominator`` are ``poly`` over one common
    denominator, so evaluation runs in integers.
    """

    poly: Poly
    checks: tuple[Affine, ...]
    numerators: tuple[tuple[int, Monomial], ...]
    denominator: int

    @staticmethod
    def build(poly: Poly, checks: tuple[Affine, ...]) -> "ChainCount":
        denominator = lcm(*(c.denominator for c in poly.terms.values()))
        numerators = tuple(
            (int(c * denominator), mono) for mono, c in poly.terms.items()
        )
        return ChainCount(poly, checks, numerators, denominator)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """The count under ``env`` (parameter bindings).

        Raises:
            PolySumError: an unbound parameter, a failed validity check,
                or a non-integral or negative count.
        """
        try:
            for check in self.checks:
                value = check.const
                for name, coeff in check.terms:
                    value += coeff * env[name]
                if value < 0:
                    raise PolySumError(f"closed form needs {check} >= 0")
            total = 0
            for coeff, mono in self.numerators:
                for name, power in mono:
                    coeff *= env[name] ** power
                total += coeff
        except KeyError as missing:
            raise PolySumError(f"unbound variable {missing.args[0]!r}") from None
        result, remainder = divmod(total, self.denominator)
        if remainder:
            raise PolySumError(
                f"non-integral count {Fraction(total, self.denominator)}"
            )
        if result < 0:
            raise PolySumError(f"negative count {result}: range underflow")
        return result


@dataclass
class _Level:
    """One chain level during compilation (bounds may get clipped).

    Unit-step levels range over ``lo..hi`` and run from ``first``
    (``lo`` for step 1, ``hi`` for step -1). Strided levels with a
    constant trip run ``v = lb + step*t`` for ``t = 0..trip-1``, from
    ``lo = lb`` to ``hi = lb + step*(trip-1)``.
    """

    var: str
    mode: str
    step: int
    lo: Affine
    hi: Affine
    trip: int | None = None  # strided levels only

    @property
    def first(self) -> Affine:
        return self.hi if self.step == -1 else self.lo


def _level(var: str, lb: Affine, ub: Affine, step: int, mode: str) -> _Level:
    if var in lb.names or var in ub.names:
        raise PolySumError(f"bound of {var} depends on itself")
    if step == 1:
        return _Level(var, mode, step, lb, ub)
    if step == -1:
        # DO v = lb, ub, -1 iterates ub..lb; the multiset of values is the
        # reversed range, and counting does not care about order except
        # for which iteration is first.
        return _Level(var, mode, step, ub, lb)
    span = ub - lb
    if not span.is_constant():
        raise PolySumError(f"step {step} with a symbolic trip outside the exact closed forms")
    trip = max((span.const + step) // step, 0)
    return _Level(var, mode, step, lb, lb + step * (trip - 1), trip)


def _clip(level: _Level, coeff: int, cond: Affine) -> bool:
    """Clip ``level``'s range to where ``cond >= 0`` holds.

    ``cond`` is ``coeff * var + rest`` with ``coeff`` +-1 and ``rest``
    free of loop variables. Points cut away count zero, so clipping is
    exact; it is done only when the clip point differs from the bound by
    a constant (so ``min``/``max`` is decided once for every ``env``).
    Returns False when that difference is symbolic.
    """
    point = -(cond - Affine.var(level.var, coeff)) * coeff  # var >= / <= point
    if coeff == 1:  # var >= point: raise lo
        side, gap = "lo", point - level.lo
    else:  # var <= point: lower hi
        side, gap = "hi", level.hi - point
    if not gap.is_constant():
        return False
    if gap.const > 0:
        if level.mode == "pairs" and (side == "lo") == (level.step == 1):
            # The skipped first iteration is among the zero points.
            level.mode = "full"
        setattr(level, side, point)
    return True


def _require(levels: list[_Level], k: int, cond: Affine, checks: list[Affine]) -> None:
    """Make ``cond >= 0`` hold wherever level ``k`` is reached.

    Eliminates enclosing loop variables innermost-out. A condition in
    one enclosing unit-step variable (coefficient +-1) clips that
    variable's range. A ``once`` level is replaced by its first value,
    which keeps the condition exact. Otherwise a variable is replaced by
    the end of its range that minimizes ``cond``; the result is then
    only sufficient, so nothing is clipped after that. What remains on
    parameters alone becomes an evaluation-time check.
    """
    exact = True
    while True:
        inner = [j for j in range(k) if levels[j].var in cond.names]
        if not inner:
            if cond.is_constant():
                if cond.const < 0:
                    raise PolySumError(
                        f"range of {levels[k].var} below its {levels[k].mode} floor"
                    )
            elif cond not in checks:
                checks.append(cond)
            return
        j = inner[-1]
        level = levels[j]
        coeff = cond.coeff(level.var)
        if (
            exact
            and len(inner) == 1
            and abs(coeff) == 1
            and level.trip is None
            and level.mode != "once"
            and _clip(level, coeff, cond)
        ):
            return
        if level.mode == "once":
            value = level.first
        elif level.trip is None:
            value = level.lo if coeff > 0 else level.hi
            exact = False
        else:
            value = level.lo if coeff * level.step > 0 else level.hi
            exact = False
        cond = cond.substitute(level.var, value)


def _compile(shape: tuple, modes: tuple) -> ChainCount:
    mode_of = dict(modes)
    levels = [
        _level(var, lb, ub, step, mode_of.get(var, "full"))
        for var, lb, ub, step in shape
    ]
    checks: list[Affine] = []
    # Innermost-out, so a clip is seen by the conditions of the levels
    # between the clipped one and the one that asked for it.
    for k in range(len(levels) - 1, -1, -1):
        level = levels[k]
        floor = _FLOOR.get(level.mode, 0)
        if level.trip is not None:
            if level.trip < floor:
                raise PolySumError(f"range of {level.var} below its {level.mode} floor")
            continue
        _require(levels, k, level.hi - level.lo + (1 - floor), checks)

    body = Poly.constant(1)
    for level in reversed(levels):
        var, mode = level.var, level.mode
        first = Poly.from_affine(level.first)
        if mode == "once":
            body = body.substitute(var, first)
            continue
        if level.trip is None:
            summed = sum_over_range(
                body, var, Poly.from_affine(level.lo), Poly.from_affine(level.hi)
            )
        else:
            # v = lb + step*t over t = 0..trip-1: a constant range.
            t = f"{var}'"
            step_poly = first + Poly.var(t) * level.step
            summed = sum_over_range(
                body.substitute(var, step_poly),
                t,
                Poly.constant(0),
                Poly.constant(level.trip - 1),
            )
        if mode == "pairs":
            # pairs = full sum minus one body evaluation (at the first
            # iteration in execution order).
            summed = summed - body.substitute(var, first)
        body = summed
    return ChainCount.build(body, tuple(checks))


def compile_chain_count(chain, modes: Mapping[str, str] | None = None) -> ChainCount:
    """The memoized :class:`ChainCount` of a chain (outermost first).

    Each level's closed form needs its trip to meet the mode's floor.
    The floor is made to hold in one of three ways:

    * proved over the enclosing ranges (e.g. ``DO J=I,N`` inside
      ``DO I=1,N``);
    * by clipping: when the floor is linear with coefficient +-1 in one
      enclosing unit-step variable and the clip point differs from that
      variable's bound by a constant, the range is cut to where the floor
      holds (``DO J=I+2,N`` inside ``DO I=1,N`` runs ``I`` to ``N-1``);
    * as a check on parameters alone, done at evaluation time.

    Anything else declines.

    Raises:
        PolySumError: a strided level with a symbolic trip, a
            self-referential bound, or a floor that cannot be made to
            hold. The decline is cached like a result.
    """
    shape = tuple((l.var, l.lb, l.ub, l.step) for l in chain)
    key = (shape, tuple(sorted((modes or {}).items())))
    compiled = _CHAIN_COUNTS.get(key)
    if compiled is None:
        try:
            compiled = _compile(*key)
        except PolySumError as decline:
            compiled = str(decline)
        _CHAIN_COUNTS.put(key, compiled)
    if isinstance(compiled, str):
        raise PolySumError(compiled)
    return compiled


def chain_count(chain, env: Mapping[str, int]) -> int:
    """Exact number of iterations of a loop chain (outermost first).

    Raises:
        PolySumError: see :func:`weighted_chain_count`.
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
      (evaluated at its first iteration), used for levels whose sweep
      sits inside a reuse window.

    The count is compiled once per chain shape
    (:func:`compile_chain_count`) and evaluated at ``env``. It is exact
    for affine bounds with steps of +-1, and for any step when the
    loop's trip is constant (tile loops, unroll-and-jam steps); a
    strided loop with a symbolic trip raises :class:`PolySumError`, as
    does a failed validity check, a non-integral or a negative count.
    """
    return compile_chain_count(chain, modes).evaluate(env)
