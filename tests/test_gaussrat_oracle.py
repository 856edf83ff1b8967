"""The integer-triple kernel against the Fraction-pair reference kernel.

Every value is built twice, once in each kernel, from the same parts.
Each operation must then give the same value (as Fractions), the same
repr, str, hash and truth value, and the same error type and message.
The package's values must also be canonical: d > 0, gcd(a, b, d) == 1,
so equal values hold identical triples.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import GaussianRational, I_UNIT, ONE, ZERO, as_gaussian, format_gaussian, i_power

import reference_gaussrat as ref

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
parts = st.one_of(st.integers(-30, 30), fractions)
scalars = st.one_of(st.integers(-30, 30), fractions)


@st.composite
def pairs(draw):
    """(value, reference value) built from the same two parts."""
    re, im = draw(parts), draw(parts)
    return GaussianRational(re, im), ref.GaussianRational(re, im)


@st.composite
def operands(draw):
    """A Gaussian pair, or an int or Fraction standing on both sides."""
    if draw(st.booleans()):
        return draw(pairs())
    value = draw(scalars)
    return value, value


def assert_same(value, reference) -> None:
    assert isinstance(value, GaussianRational)
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == (reference.re, reference.im)
    assert repr(value) == repr(reference)
    assert str(value) == str(reference)
    assert format_gaussian(value) == ref.format_gaussian(reference)
    assert hash(value) == hash(reference)
    assert bool(value) == bool(reference)
    assert value.is_real == reference.is_real
    a, b, d = value._t
    assert d > 0 and math.gcd(a, b, d) == 1
    assert all(type(k) is int for k in value._t)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except (TypeError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(fn, new_args, ref_args) -> None:
    value, error = outcome(fn, *new_args)
    reference, ref_error = outcome(fn, *ref_args)
    assert error == ref_error
    if error is None:
        assert_same(value, reference)


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=80, deadline=None)
@given(pairs(), operands(), st.booleans())
def test_operations_match_reference(left, right, swap):
    (x, rx), (y, ry) = left, right
    assert_same(x, rx)
    assert_same(-x, -rx)
    assert_same(x.conjugate(), rx.conjugate())
    assert (x == y) == (rx == ry) and (y == x) == (ry == rx)
    assert (x != y) == (rx != ry)
    if swap:
        x, rx, y, ry = y, ry, x, rx
    for op in BINARY:
        assert_same_outcome(op, (x, y), (rx, ry))


@settings(max_examples=50, deadline=None)
@given(pairs(), st.integers(-5, 7))
def test_powers_match_reference(pair, k):
    x, rx = pair
    assert_same_outcome(operator.pow, (x, k), (rx, k))


@settings(max_examples=40, deadline=None)
@given(pairs(), pairs())
def test_equal_values_share_one_triple(pair, scale):
    x, _ = pair
    y, _ = scale
    if not y:
        return
    rebuilt = (x * y) / y
    assert rebuilt == x
    assert rebuilt._t == x._t
    assert hash(rebuilt) == hash(x)
    assert (x + y - y)._t == x._t


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_scalars_coerce_like_reference(value):
    assert_same(as_gaussian(value), ref.as_gaussian(value))
    assert_same(GaussianRational(value), ref.GaussianRational(value))
    assert_same(GaussianRational(0, value), ref.GaussianRational(0, value))
    assert as_gaussian(value) == value
    assert hash(as_gaussian(value)) == hash(value)


BAD = (1.5, "1", None, 1j)


@pytest.mark.parametrize("bad", BAD)
def test_type_errors_match_reference(bad):
    x, rx = GaussianRational(Fraction(1, 2), 3), ref.GaussianRational(Fraction(1, 2), 3)
    assert outcome(GaussianRational, bad)[1] == outcome(ref.GaussianRational, bad)[1]
    assert outcome(GaussianRational, 1, bad)[1] == outcome(ref.GaussianRational, 1, bad)[1]
    assert outcome(as_gaussian, bad)[1] == outcome(ref.as_gaussian, bad)[1]
    for op in BINARY:
        assert outcome(op, x, bad)[1] == outcome(op, rx, bad)[1]
    assert outcome(operator.pow, x, bad)[1] == outcome(operator.pow, rx, bad)[1]
    assert outcome(GaussianRational, bad)[1][0] is TypeError
    assert (x == bad) is (rx == bad) is False


def test_zero_division_errors_match_reference():
    rzero = ref.GaussianRational()
    for fn, args, ref_args in (
        (operator.truediv, (ONE, ZERO), (ref.ONE, rzero)),
        (operator.truediv, (1, ZERO), (1, rzero)),
        (operator.truediv, (ONE, 0), (ref.ONE, 0)),
        (operator.truediv, (I_UNIT, Fraction(0)), (ref.I_UNIT, Fraction(0))),
        (operator.pow, (ZERO, -1), (rzero, -1)),
    ):
        error = outcome(fn, *args)[1]
        assert error is not None and error[0] is ZeroDivisionError
        assert error == outcome(fn, *ref_args)[1]


def test_constants_match_reference():
    assert_same(ZERO, ref.ZERO)
    assert_same(ONE, ref.ONE)
    assert_same(I_UNIT, ref.I_UNIT)
    for k in range(-5, 6):
        assert_same(i_power(k), ref.i_power(k))
    assert GaussianRational(re=Fraction(3, 2))._t == (3, 0, 2)
    assert repr(GaussianRational(Fraction(3, 2))) == "GaussianRational(Fraction(3, 2), Fraction(0, 1))"


def test_values_are_immutable_and_copy_exactly():
    z = GaussianRational(Fraction(-2, 3), Fraction(5, 6))
    with pytest.raises(AttributeError):
        z.re = Fraction(1)
    with pytest.raises(AttributeError):
        z._t = (1, 0, 1)
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and twin._t == z._t and hash(twin) == hash(z)
