"""Sparse polynomial arithmetic, substitution, and canonical form."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import I_UNIT, MAX_TOTAL_DEGREE, GaussianRational, MultiPoly, as_gaussian

import reference_gaussrat as ref
from conftest import random_poly

U = ("tau", "xi1", "v1")


def var(name, universe=U):
    return MultiPoly.var(universe, name)


def test_substitute_shift_expands():
    tau, xi1, v1 = var("tau"), var("xi1"), var("v1")
    p = tau**2
    result = p.substitute({"tau": tau - xi1 * v1})
    assert result == tau**2 - tau * xi1 * v1 * 2 + xi1**2 * v1**2


def test_substitute_empty_is_identity():
    xi1 = var("xi1")
    assert xi1.substitute({}) == xi1


def test_substitute_schrodinger_fixed_point():
    # -2*tau - xi1^2 is fixed under the gauged boost substitution at lam=1.
    tau, xi1, v1 = var("tau"), var("xi1"), var("v1")
    p = tau * -2 - xi1**2
    moved = p.substitute(
        {"tau": tau - xi1 * v1 - v1**2 * Fraction(1, 2), "xi1": xi1 + v1}
    )
    assert moved == p


def test_partial_derivatives():
    two = ("xi1", "xi2")
    xi1, xi2 = var("xi1", two), var("xi2", two)
    assert (xi1**2 + xi2**2).partial("xi1") == xi1 * 2
    assert (xi1**2).partial("xi2").is_zero
    tau = MultiPoly.var(("tau",), "tau")
    assert (tau**3).partial("tau") == tau**2 * 3


def test_partial_unknown_variable():
    with pytest.raises(ValueError):
        var("tau").partial("mu")


def test_universe_mismatch_rejected():
    p = MultiPoly.var(("a", "b"), "a")
    q = MultiPoly.var(("a", "c"), "a")
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_substitute_universe_extension():
    small = MultiPoly.var(("tau",), "tau")
    big_target = MultiPoly.var(U, "xi1")
    out = small.substitute({"tau": big_target})
    assert out.variables == U
    assert out == var("xi1")


def test_substitute_pass_through_requires_target_variable():
    p = MultiPoly.var(("tau", "extra"), "tau") + MultiPoly.var(("tau", "extra"), "extra")
    with pytest.raises(ValueError):
        p.substitute({"tau": var("xi1")})  # "extra" cannot pass through into U


def test_degree_cap():
    x = MultiPoly.var(("x",), "x")
    with pytest.raises(ValueError):
        x ** (MAX_TOTAL_DEGREE + 1)


def test_power_checks_the_cap_before_any_product(monkeypatch):
    """Degrees add exactly under products, so `**` names the power's own
    degree, 31 * 5, and multiplies nothing."""
    x = MultiPoly.var(("x",), "x")
    p = x**31 + 1

    def refused(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr("galinv.multipoly._add_product", refused)
    with pytest.raises(ValueError, match=f"^term degree 155 exceeds the cap of {MAX_TOTAL_DEGREE}$"):
        p**5


def test_substitute_names_the_degree_of_a_bound_power():
    names = tuple(f"xi{a}" for a in range(1, 10))
    image = MultiPoly.var(names, "xi1") ** 16 + 1
    with pytest.raises(ValueError, match=f"^term degree 256 exceeds the cap of {MAX_TOTAL_DEGREE}$"):
        (MultiPoly.var(names, "xi9") ** 16).substitute({"xi9": image})


@pytest.mark.parametrize("base", [MultiPoly.const(U, I_UNIT), MultiPoly.zero(U)])
def test_a_constant_takes_the_scalar_power(base):
    """No degree bounds a constant's exponent, so its power is not k products."""
    start = time.perf_counter()
    power = base ** 10**9
    assert time.perf_counter() - start < 0.1
    assert power == base.constant_value() ** 10**9 and power.variables == U


def test_evaluate_exactly():
    p = var("tau") * 2 - var("xi1") ** 2
    value = p.evaluate({"tau": Fraction(1, 2), "xi1": Fraction(3)})
    assert value == GaussianRational(Fraction(-8))


def test_extend_embeds():
    small = ("tau",)
    p = MultiPoly.var(small, "tau") ** 2 + 1
    q = p.extend(U)
    assert q.variables == U
    assert q == var("tau") ** 2 + 1


def test_str_graded_lex():
    p = var("xi1") ** 2 - var("tau") - 1
    assert str(p) == "xi1^2 - tau - 1"
    assert str(MultiPoly.zero(U)) == "0"


small_polys = st.integers(0, 2**32 - 1).map(
    lambda seed: random_poly(random.Random(seed), U, max_terms=4, max_degree=3)
)


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_substitution_is_a_ring_homomorphism(p, q):
    bindings = {
        "tau": var("tau") - var("xi1") * var("v1"),
        "xi1": var("xi1") + var("v1") * Fraction(1, 2),
    }
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


@settings(max_examples=60)
@given(small_polys)
def test_canonical_form_self_difference(p):
    assert (p - p).is_zero
    assert (p - p).terms == {}


@settings(max_examples=40)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


# Ring laws over a small universe.  The symbol route and the oracles share
# this kernel, so these laws, and agreement with the Fraction-pair
# reference kernel, are what would catch a kernel bug.

tiny_polys = st.integers(0, 2**32 - 1).map(
    lambda seed: random_poly(random.Random(seed), U, max_terms=3, max_degree=2)
)
scalar_values = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    ),
)
points = st.fixed_dictionaries({name: scalar_values for name in U})


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_additive_laws_and_left_distributivity(p, q, r):
    zero, one = MultiPoly.zero(U), MultiPoly.const(U, 1)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert r * (p + q) == r * p + r * q
    assert p + zero == p and p * one == p and (p * zero).is_zero
    assert p - q == p + (-q)


@settings(max_examples=25, deadline=None)
@given(tiny_polys, st.lists(tiny_polys, min_size=6, max_size=6))
def test_substitute_composes(p, images):
    a = dict(zip(U, images[:3]))
    b = dict(zip(U, images[3:]))
    composite = {name: image.substitute(b) for name, image in a.items()}
    assert p.substitute(a).substitute(b) == p.substitute(composite)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, points)
def test_evaluate_is_a_ring_homomorphism(p, q, point):
    x, y = p.evaluate(point), q.evaluate(point)
    assert (p * q).evaluate(point) == x * y
    assert (p + q).evaluate(point) == x + y
    assert (p - q).evaluate(point) == x - y


def reference(value) -> ref.GaussianRational:
    z = as_gaussian(value)
    return ref.GaussianRational(z.re, z.im)


@settings(max_examples=40, deadline=None)
@given(small_polys, points)
def test_evaluate_matches_reference_kernel(p, point):
    total = ref.ZERO
    for exps, coeff in p.terms.items():
        term = reference(coeff)
        for name, e in zip(U, exps):
            term = term * reference(point[name]) ** e
        total = total + term
    value = p.evaluate(point)
    assert (value.re, value.im) == (total.re, total.im)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_product_matches_reference_kernel(p, q):
    expected: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            expected[exps] = expected.get(exps, ref.ZERO) + reference(c1) * reference(c2)
    expected = {exps: (c.re, c.im) for exps, c in expected.items() if c}
    assert {exps: (c.re, c.im) for exps, c in (p * q).terms.items()} == expected
