"""The oracle's one-plan defect and its integer theta against their old routes.

`boost_commutator_defect` reads the operator once into a plan, walks the
plane wave and the boosted wave on it, and sums both sides into one packed
accumulator; `reference_oracle.two_apply_defect` is the route it replaced,
two `apply_lpdo` calls and a subtraction.  `actions._theta_terms` gives
theta as integer numerators over one denominator, which
`boost_phase_poly` and the oracle's boosted phase pack in one pass;
`reference_oracle.theta_terms` gives the same terms as `Fraction`s, packed
by `multipoly._rational_terms`.  Each pair must give identical universes,
denominators and packed terms.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import LPDO, MultiPoly, boost_commutator_defect, boost_phase_poly, universe
from galinv.actions import _theta_terms
from galinv.multipoly import _rational_terms
from galinv.oracle import _boosted_phase

import reference_oracle as ref
from conftest import assert_same_internals, random_constant_lpdo, random_variable_lpdo

LAMS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2))
thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)
velocities = st.lists(thirds, min_size=3, max_size=3)
nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def with_x(op: LPDO) -> LPDO:
    """The operator plus x1 times its highest-order key's derivative, so that
    a coefficient holds x and the left side is pulled back."""
    key = max(op.coeffs, key=lambda k: k[0] + sum(k[1]))
    x1 = MultiPoly.var(universe.coeff_vars(op.n), universe.space(1))
    coeffs = dict(op.coeffs)
    coeffs[key] = coeffs[key] + x1
    return LPDO(op.n, coeffs)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.sampled_from(["constant", "variable", "x"]),
       st.integers(0, 2**32), st.sampled_from(LAMS), nonzero, velocities)
@example(2, 4, "x", 3, Fraction(0), Fraction(1, 3), [Fraction(2, 3), Fraction(-1, 2), 0])
@example(3, 8, "constant", 5, Fraction(1, 2), Fraction(-2), [Fraction(1, 3), -1, Fraction(2, 3)])
def test_defect_matches_the_two_apply_route(n, order, kind, seed, lam, c, velocity):
    rng = random.Random(seed)
    op = random_constant_lpdo(rng, n, order) if kind == "constant" or order == 0 else random_variable_lpdo(rng, n, order)
    if kind == "x":
        op = with_x(op)
    v = velocity[:n]
    assert_same_internals(boost_commutator_defect(op, lam, v, c), ref.two_apply_defect(op, lam, v, c))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.one_of(st.sampled_from(LAMS), thirds), st.one_of(st.just(0), thirds), velocities)
@example(2, Fraction(1, 2), Fraction(1, 3), [Fraction(2, 3), Fraction(1, 2), 0])
def test_integer_theta_matches_the_fraction_terms(n, lam, c, velocity):
    v = velocity[:n]
    d, terms = _theta_terms(lam, c, v)
    assert type(d) is int and all(type(value) is int for _, value in terms)
    assert all(d % va.denominator == 0 for va in v)
    if lam:
        assert_same_internals(boost_phase_poly(lam, c, n, v),
                              _rational_terms(universe.coeff_vars(n), ref.theta_terms(lam, c, v)))
    assert_same_internals(_boosted_phase(universe.symbol_vars(n), lam, v, c), ref.boosted_phase(n, lam, v, c))
