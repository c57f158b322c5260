"""Tests for the polynomial type behind LoopCost and exact counting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.ir.affine import Affine
from repro.ir.poly import Poly

N = Poly.var("N")
M = Poly.var("M")


class TestArithmetic:
    def test_constant_identity(self):
        assert (N + 0) == N
        assert (N * 1) == N

    def test_polynomial_product(self):
        p = (N + 1) * (N - 1)
        assert p == N * N - 1

    def test_division(self):
        assert (N * N) / 4 == N * N * Fraction(1, 4)

    def test_division_by_zero(self):
        with pytest.raises(ReproError):
            N / 0

    def test_from_affine(self):
        form = Affine.build({"N": 2}, 3)
        assert Poly.from_affine(form) == 2 * N + 3

    def test_degree(self):
        assert (N * N * M + N).degree == 3
        assert Poly.constant(5).degree == 0

    def test_dominant_term(self):
        # The dominating term decides magnitude and is printed first.
        poly = 2 * N * N + 7 * N + 1
        assert poly.magnitude() == pytest.approx((2 * N * N).magnitude(), rel=1e-5)
        assert str(poly).startswith("2 N^2 ")

    def test_structural_equality_and_hash(self):
        a = (N + 1) * (M - 2)
        b = M * N - 2 * N + M - 2
        assert a == b and hash(a) == hash(b)
        assert len({a, b, N}) == 2


class TestEvaluation:
    def test_evaluate(self):
        poly = 2 * N * N + M
        assert poly.evaluate({"N": 3, "M": 4}) == 22

    def test_evaluate_unbound(self):
        with pytest.raises(ReproError):
            N.evaluate({})

    def test_magnitude_orders_by_degree(self):
        assert (N * N).magnitude() > (1000 * N).magnitude()

    def test_magnitude_constants_exact(self):
        assert Poly.constant(7).magnitude() == 7.0

    def test_ratio(self):
        # Cost ratios are quotients of magnitudes (stats.memorder).
        assert (2 * N).magnitude() / N.magnitude() == pytest.approx(2.0)

    def test_magnitude_independent_of_term_order(self):
        assert (N * N + N + 1).magnitude() == (1 + N + N * N).magnitude()


class TestDisplay:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (Poly.constant(0), "0"),
            (N, "N"),
            (2 * N * N + N, "2 N^2 + N"),
            (N * N * Fraction(5, 2) + N * N * M * 0 + 1, "5/2 N^2 + 1"),
            (N - 1, "N - 1"),
        ],
    )
    def test_str(self, poly, text):
        assert str(poly) == text


@st.composite
def polys(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["N", "M"]),
                st.integers(0, 3),
                st.integers(-5, 5),
            ),
            max_size=4,
        )
    )
    poly = Poly.constant(0)
    for name, exp, coeff in terms:
        term = Poly.constant(coeff)
        for _ in range(exp):
            term = term * Poly.var(name)
        poly = poly + term
    return poly


class TestProperties:
    @given(polys(), polys())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys(), polys(), polys())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    def test_evaluation_homomorphism(self, a, b):
        env = {"N": 3, "M": 5}
        assert (a * b).evaluate(env) == pytest.approx(a.evaluate(env) * b.evaluate(env))

    @given(polys())
    def test_sub_self_is_zero(self, a):
        assert a - a == Poly()
