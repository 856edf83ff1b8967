"""The integer-triple values against the Fraction-pair reference kernel.

Every value is built twice, once in each kernel, from the same parts.
Each operation a held value keeps (negation and comparison) must then
give the same value (as Fractions), the same repr, str, hash and truth
value, and the same error type and message.  The package's values must
also be canonical: d > 0, gcd(a, b, d) == 1, so equal values, however
the reference computed them, hold identical triples.
"""

import copy
import math
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
    except TypeError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(pairs(), operands())
def test_operations_match_reference(left, right):
    (x, rx), (y, ry) = left, right
    assert_same(x, rx)
    assert_same(-x, -rx)
    assert (x == y) == (rx == ry) and (y == x) == (ry == rx)
    assert (x != y) == (rx != ry)


@settings(max_examples=40, deadline=None)
@given(pairs(), pairs())
def test_equal_values_share_one_triple(pair, scale):
    x, rx = pair
    _, ry = scale
    if not ry:
        return
    rebuilt = ref.held((rx * ry) / ry)
    assert rebuilt == x
    assert rebuilt._t == x._t
    assert hash(rebuilt) == hash(x)
    assert ref.held(rx + ry - ry)._t == x._t


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
    assert outcome(GaussianRational, bad)[1][0] is TypeError
    assert (x == bad) is (rx == bad) is False


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
