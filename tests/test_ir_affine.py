"""Unit and property tests for affine forms."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import NonAffineError
from repro.ir.affine import Affine, as_affine

NAMES = st.sampled_from(["I", "J", "K", "N", "M"])


@st.composite
def affines(draw):
    coeffs = draw(
        st.dictionaries(NAMES, st.integers(-5, 5), max_size=3)
    )
    const = draw(st.integers(-100, 100))
    return Affine.build(coeffs, const)


class TestConstruction:
    def test_constant(self):
        a = Affine.constant(7)
        assert a.is_constant()
        assert a.constant_value() == 7

    def test_var(self):
        a = Affine.var("I")
        assert a.coeff("I") == 1
        assert a.coeff("J") == 0
        assert not a.is_constant()

    def test_zero_coeffs_dropped(self):
        a = Affine.build({"I": 0, "J": 2}, 1)
        assert a.names == frozenset({"J"})

    def test_as_affine_coercions(self):
        assert as_affine(3) == Affine.constant(3)
        assert as_affine("K") == Affine.var("K")
        a = Affine.var("I")
        assert as_affine(a) is a

    def test_as_affine_rejects_bool_and_junk(self):
        with pytest.raises(NonAffineError):
            as_affine(True)
        with pytest.raises(NonAffineError):
            as_affine(1.5)

    def test_constant_value_raises_on_variable_form(self):
        with pytest.raises(NonAffineError):
            Affine.var("I").constant_value()


class TestArithmetic:
    def test_add_sub(self):
        i, j = Affine.var("I"), Affine.var("J")
        a = i + j + 3
        assert a.coeff("I") == 1 and a.coeff("J") == 1 and a.const == 3
        b = a - i
        assert b.coeff("I") == 0 and b.coeff("J") == 1

    def test_scale(self):
        a = (Affine.var("I") + 2) * 3
        assert a.coeff("I") == 3 and a.const == 6

    def test_nonlinear_product_rejected(self):
        with pytest.raises(NonAffineError):
            Affine.var("I") * Affine.var("J")

    def test_product_with_constant_affine(self):
        a = Affine.var("I") * Affine.constant(4)
        assert a.coeff("I") == 4

    def test_rsub(self):
        a = 10 - Affine.var("I")
        assert a.coeff("I") == -1 and a.const == 10

    def test_substitute(self):
        # I + 2J with J := K + 1 gives I + 2K + 2
        a = Affine.build({"I": 1, "J": 2})
        b = a.substitute("J", Affine.var("K") + 1)
        assert b == Affine.build({"I": 1, "K": 2}, 2)

    def test_substitute_absent_name_is_noop(self):
        a = Affine.var("I")
        assert a.substitute("Z", 5) is a

    def test_rename_merges(self):
        a = Affine.build({"I": 1, "J": 2})
        b = a.rename({"J": "I"})
        assert b == Affine.build({"I": 3})


class TestEvaluation:
    def test_evaluate(self):
        a = Affine.build({"I": 2, "N": 1}, -1)
        assert a.evaluate({"I": 3, "N": 10}) == 15

    def test_evaluate_unbound_raises(self):
        with pytest.raises(NonAffineError):
            Affine.var("I").evaluate({})

    def test_partial_evaluate(self):
        a = Affine.build({"I": 1, "N": 1})
        assert a.partial_evaluate({"N": 8}) == Affine.var("I") + 8


class TestDisplay:
    @pytest.mark.parametrize(
        "form, text",
        [
            (Affine.constant(0), "0"),
            (Affine.constant(-3), "-3"),
            (Affine.var("I"), "I"),
            (Affine.var("I") + 1, "I+1"),
            (Affine.var("I") - 1, "I-1"),
            (Affine.var("I") * -1, "-I"),
            (Affine.build({"I": 2, "J": -3}, 4), "2*I-3*J+4"),
        ],
    )
    def test_str(self, form, text):
        assert str(form) == text


class TestProperties:
    @given(affines(), affines())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(affines(), affines(), affines())
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(affines())
    def test_neg_is_involution(self, a):
        assert -(-a) == a

    @given(affines(), st.integers(-4, 4))
    def test_scale_distributes_over_eval(self, a, k):
        env = {n: 2 for n in a.names}
        assert (a * k).evaluate(env) == k * a.evaluate(env)

    @given(affines(), affines())
    def test_eval_homomorphism(self, a, b):
        env = {n: 3 for n in (a.names | b.names)}
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(
        affines(),
        st.fixed_dictionaries(
            {n: st.tuples(st.integers(-4, 4), st.integers(0, 3)) for n in "IJKNM"}
        ),
    )
    def test_interval_is_hull_reached_at_corners(self, a, boxes):
        ranges = {n: (lo, lo + width) for n, (lo, width) in boxes.items()}
        lo, hi = a.interval(ranges)
        names = sorted(a.names)
        for point in itertools.product(
            *(range(ranges[n][0], ranges[n][1] + 1) for n in names)
        ):
            assert lo <= a.evaluate(dict(zip(names, point))) <= hi
        corners = {
            a.evaluate(dict(zip(names, corner)))
            for corner in itertools.product(*(ranges[n] for n in names))
        }
        assert lo in corners and hi in corners

    def test_interval_unranged_names(self):
        form = Affine.build({"I": 2, "N": -1}, 3)
        with pytest.raises(KeyError):
            form.interval({"I": (1, 4)})
        assert form.interval({"I": (1, 4)}, default=(1, 8)) == (-3, 10)
        assert Affine.constant(5).interval({}) == (5, 5)

    @given(affines())
    def test_substitute_then_eval(self, a):
        # substituting J := K+1 then evaluating equals evaluating with J = K+1
        subbed = a.substitute("J", Affine.var("K") + 1)
        env = {n: 5 for n in a.names | {"K"}}
        env_j = dict(env, J=env.get("K", 5) + 1)
        assert subbed.evaluate({**env, "K": 5}) == a.evaluate(env_j)
