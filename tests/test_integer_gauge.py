"""The integer gauge stage and the leaner radial scan against their old routes.

`classify._boost_gauge` holds each c_jk = b_jk * i^j as the integer triple
(x, y, d) of (x + y*i)/d and decides q_tau = 2*lam*q_s as equal key sets
plus cross-multiplied integer equalities; `checks._decompose` turns each b
by quarter-turns of its triple; `multipoly._radial_parts` weights an even
term by the factorials of its halved xi bytes and reads its degree off
the degree byte.
`reference_classify.boost_gauge` and `reference_multipoly.radial_parts`
hold the routes these replaced.  Each pair must return equal values of
the same type, on decompositions and polynomials that the classifiers
never build as well as on those they do.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import GaussianRational, MultiPoly, check_rotation_invariance, symbol_of, synthesize
from galinv import universe
from galinv.checks import RadialDecomposition
from galinv.classify import _boost_gauge
from galinv.gaussrat import _make, _normal, _turn
from galinv.multipoly import _radial_parts

import reference_classify
import reference_gaussrat as rg
import reference_multipoly
from conftest import random_constant_lpdo, random_fraction, random_gaussian

LAMS = (Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(3, 4))
# Radial keys (j, k) of order j + 2k <= 8.
KEYS = [(j, k) for j in range(9) for k in range(5) if j + 2 * k <= 8]

small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gaussians = st.builds(GaussianRational, small, small)
# Every kind of lam a caller passes or the derivation starts from.
given_lams = st.one_of(
    st.none(), st.just(0), st.just(Fraction(0)), st.just(GaussianRational()), small,
    st.sampled_from(LAMS), gaussians,
)


def assert_same(new, old, lam):
    """Equal values of the same type, and the given lam itself on both routes."""
    assert type(new) is type(old)
    assert new == old and repr(new) == repr(old)
    assert (new is lam) == (old is lam)


def power_form_radial(rng: random.Random, n: int, lam: Fraction, degree: int):
    """The radial decomposition of a synthesized sum a_j*(2i*lam*dt + Lap)^j."""
    coeffs = [random_gaussian(rng) for _ in range(degree)] + [random_gaussian(rng) or 1]
    op = synthesize(lam, coeffs, n)
    return check_rotation_invariance(op).radial


@given(gaussians, st.integers(-9, 9))
def test_quarter_turns_match_i_power(z, k):
    turned = rg.held(rg.i_power(k) * z)
    assert _turn(z._t, k) == turned._t
    assert _make(*_turn(z._t, k)) == turned


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.dictionaries(st.sampled_from(KEYS), gaussians, max_size=8),
       given_lams)
@example(2, {}, None)
@example(2, {}, Fraction(3))
@example(1, {(1, 0): GaussianRational(2)}, None)  # the partner (0, 1) is missing
@example(1, {(1, 0): GaussianRational(0), (0, 1): GaussianRational(1)}, None)  # c_10 = 0
@example(1, {(1, 0): GaussianRational(0), (0, 1): GaussianRational(0)}, Fraction(1))
@example(1, {(0, 1): GaussianRational(1)}, 0)  # free of tau at lam = 0
def test_boost_gauge_matches_reference_on_random_decompositions(n, b, lam):
    radial = RadialDecomposition(n, max((j + 2 * k for j, k in b), default=0), b)
    assert_same(_boost_gauge(radial, lam), reference_classify.boost_gauge(radial, lam), lam)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(LAMS), st.integers(0, 3),
       st.booleans(), given_lams)
def test_boost_gauge_matches_reference_on_power_forms(seed, n, lam, degree, perturb, other):
    """Synthesized power forms, plain or with one or two b_jk changed or
    added, at their own lam, derived, and at another lam."""
    rng = random.Random(seed)
    radial = power_form_radial(rng, n, lam, degree)
    for _ in range(rng.randint(1, 2) if perturb else 0):
        key = rng.choice([key for key in KEYS if key[0] + 2 * key[1] <= 2 * degree])
        radial.b[key] = rg.held(rg.as_gaussian(radial.coefficient(*key)) + (random_gaussian(rng) or 1))
    for trial in (lam, None, other):
        assert_same(_boost_gauge(radial, trial), reference_classify.boost_gauge(radial, trial), trial)
    if not perturb:
        assert _boost_gauge(radial, lam) is lam
        assert _boost_gauge(radial) == (lam if degree else 0)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("lam", LAMS)
def test_cross_multiplication_sees_every_unit_change(n, lam):
    """On an accepted power form of order <= 8, a change of one unit in the
    real numerator, the imaginary numerator or the denominator of any b_jk
    with j >= 1 or k >= 1 rejects, so a kernel that compared only real
    parts, or left out a denominator, would fail here."""
    rng = random.Random(31 * n + lam.numerator)
    radial = power_form_radial(rng, n, lam, 4)
    assert radial.order == 8 and _boost_gauge(radial, lam) is lam
    changed = 0
    for key, b in radial.b.items():
        if key == (0, 0):
            continue
        x, y, d = b._t
        for triple in ((x + 1, y, d), (x - 1, y, d), (x, y + 1, d), (x, y - 1, d),
                       (x, y, d + 1), (x, y, d - 1)):
            if triple[2] < 1:
                continue
            b_changed = {**radial.b, key: _normal(*triple)}
            assert _boost_gauge(RadialDecomposition(n, 8, b_changed), lam) is None, (key, triple)
            changed += 1
    assert changed >= 5 * (len(radial.b) - 1)


def random_symbol_poly(rng: random.Random, n: int) -> MultiPoly:
    """sum c_jk tau^j |xi|^(2k) plus a few arbitrary tau/xi terms, over
    the symbol universe: full, short, wrongly weighted and odd parts."""
    names = universe.symbol_vars(n)
    tau = MultiPoly.var(names, universe.FREQ_TIME)
    norm2 = MultiPoly.zero(names)
    for a in range(1, n + 1):
        xi = MultiPoly.var(names, universe.freq_space(a))
        norm2 = norm2 + xi * xi
    total = MultiPoly.zero(names)
    for j, k in rng.sample(KEYS, rng.randint(0, 5)):
        total = total + tau**j * norm2**k * random_gaussian(rng)
    for _ in range(rng.randint(0, 3)):
        alpha = [0] * n
        for _ in range(rng.randint(0, 6)):
            alpha[rng.randrange(n)] += rng.choice((1, 2))
        exps = (0,) * (n + 1) + (rng.randint(0, 2),) + tuple(alpha)
        total = total + MultiPoly(names, {exps: random_fraction(rng) or 1})
    return total


def parts_outcome(parts):
    scanned, odd_axis = parts
    return [(key, type(b), b) for key, b in scanned.items()], odd_axis


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_radial_parts_match_reference_on_random_polynomials(seed, n):
    poly = random_symbol_poly(random.Random(seed), n)
    assert parts_outcome(_radial_parts(poly, n)) == parts_outcome(
        reference_multipoly.radial_parts(poly, n))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 6))
def test_radial_parts_match_reference_on_operator_symbols(seed, n, order):
    op = random_constant_lpdo(random.Random(seed), n, order)
    poly = symbol_of(op).poly
    assert parts_outcome(_radial_parts(poly, n)) == parts_outcome(
        reference_multipoly.radial_parts(poly, n))
