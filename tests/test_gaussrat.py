"""Gaussian rationals as held values: they compare, hash, negate and print,
and have no field arithmetic.  The package's arithmetic on them runs on
constant polynomials and integer triples, and is checked here too."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galinv import (
    LPDO, GaussianRational, I_UNIT, MultiPoly, ONE, as_gaussian, format_gaussian, i_power, normalize_gauge,
)
from galinv.classify import SecondOrderVerdict

import reference_gaussrat as rg

gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
V = ("t",)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def const(z):
    """z as a constant polynomial: the package's field arithmetic on values
    runs on the packed pairs of `MultiPoly`."""
    return MultiPoly.const(V, z)


def test_mul_conjugate_pair():
    assert (const(gr(1, 1)) * const(gr(1, -1))).constant_value() == gr(2)


def test_square_of_2i():
    assert (const(gr(0, 2)) * const(gr(0, 2))).constant_value() == gr(-4)
    assert (const(gr(0, 2)) ** 2).constant_value() == gr(-4)


def test_division_by_zero():
    """normalize_gauge divides by alpha; a zero alpha raises as a zero divisor."""
    verdict = SecondOrderVerdict(True, alpha=gr(0), beta=gr(1), lam=Fraction(1))
    with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
        normalize_gauge(verdict, LPDO.schrodinger_factor(1, 1))


def test_i_powers_cycle():
    assert i_power(0) == ONE
    assert i_power(1) == I_UNIT
    assert i_power(2) == -ONE
    assert i_power(3) == -I_UNIT
    assert i_power(-1) == -I_UNIT
    assert i_power(5) == I_UNIT


def test_scalar_comparison_and_hash():
    assert gr(2) == 2
    assert gr(2) == Fraction(2)
    assert hash(gr(2)) == hash(Fraction(2))
    assert gr(0, 1) != 1


def test_format_shapes():
    assert format_gaussian(gr(0)) == "0"
    assert format_gaussian(gr(-1, 0)) == "-1"
    assert format_gaussian(gr(0, 1)) == "i"
    assert format_gaussian(gr(0, Fraction(1, 2))) == "1/2i"
    assert format_gaussian(gr(0, -2)) == "-2i"
    assert format_gaussian(gr(Fraction(3, 2), Fraction(1, 2))) == "3/2+1/2i"
    assert format_gaussian(gr(1, -2)) == "1-2i"


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    """The ring laws on constants, each value the reference kernel's."""
    x, y, z = const(a), const(b), const(c)
    assert (x + y) + z == x + (y + z) == const(rg.held(rg.as_gaussian(a) + b + c))
    assert (x * y) * z == x * (y * z) == const(rg.held(rg.as_gaussian(a) * b * c))
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert (x - y) + y == x and x + (-x) == 0


@given(gaussians, st.one_of(gaussians, st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
def test_held_values_have_no_field_arithmetic(a, b):
    """The package computes on integer triples; `+ - * / **`, their
    reflected forms and `conjugate` are not a value's."""
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        for left, right in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                op(left, right)
    assert not hasattr(a, "conjugate")
    assert -(-a) == a and (-a) == GaussianRational(-a.re, -a.im)
    assert bool(-a) == bool(a) and (-a).is_real == a.is_real


def test_as_gaussian_coercions():
    assert as_gaussian(3) == gr(3)
    assert as_gaussian(Fraction(1, 2)) == gr(Fraction(1, 2))
    assert as_gaussian(I_UNIT) is I_UNIT
