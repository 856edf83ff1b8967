"""The boost decider against the generator-image route it replaced.

`check_boost_invariance_fixed_gauge` decides on the radial gauge equation:
at lam = 0 a symbol is invariant exactly when it is free of tau, and at
lam != 0 exactly when it is radial and `_boost_gauge` accepts its
coefficients.  Two independent routes must agree with it on every
operator: `reference_classify.boost_invariant` applies the n generators
lam*d/dxi_a - xi_a*d/dtau to the whole symbol, and
`reference_classify.conj_boost_gauge` expands the symbol at the boosted
frequency, whose residue must vanish.
An accept must build no generator image and evaluate no point.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MultiPoly,
    check_boost_invariance_fixed_gauge,
    parse_operator,
    symbol_of,
    synthesize,
    universe,
)

import reference_classify
from reference_classify import conj_boost_gauge
from conftest import random_constant_lpdo, random_gaussian

LAMS = (Fraction(0), Fraction(1), Fraction(-3, 2))


def assert_routes_agree(op: LPDO, lam) -> None:
    report = check_boost_invariance_fixed_gauge(op, lam)
    assert report.invariant == reference_classify.boost_invariant(op, lam), (op, lam)
    residue = conj_boost_gauge(op, lam) - symbol_of(op).poly.extend(universe.boost_vars(op.n))
    assert report.invariant == residue.is_zero, (op, lam)
    if not report.invariant:
        assert report.witness.reverify(op)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 4), st.sampled_from(LAMS))
def test_decider_matches_image_route_on_random_operators(seed, n, order, lam):
    assert_routes_agree(random_constant_lpdo(random.Random(seed), n, order), lam)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(LAMS[1:] + (Fraction(1, 2),)),
       st.booleans())
def test_decider_matches_image_route_on_power_forms(seed, n, own, perturb):
    """sum a_j*(2i*own*dt + Lap)^j, K <= 2, plus a random constant
    operator of order <= 2 when perturbed, at its own lam and at LAMS."""
    rng = random.Random(seed)
    coeffs = [random_gaussian(rng) for _ in range(rng.randint(1, 3))]
    coeffs[-1] = coeffs[-1] or 1
    op = synthesize(own, coeffs, n)
    if perturb:
        try:
            op = op + random_constant_lpdo(rng, n, rng.randint(0, 2))
        except ValueError:  # the perturbation cancelled the operator
            assume(False)
    for lam in (own, *LAMS):
        assert_routes_agree(op, lam)
    if not perturb:
        assert check_boost_invariance_fixed_gauge(op, own).invariant


@pytest.mark.parametrize("n", (1, 2, 3))
def test_decider_matches_image_route_on_monomials(n):
    """Every Dt^j*Dx^alpha of order <= 3, radial or not, free of tau or not."""
    for order in range(4):
        for j in range(order + 1):
            for alpha in itertools.product(range(order - j + 1), repeat=n):
                if sum(alpha) == order - j:
                    op = LPDO(n, {(j, alpha): 1})
                    for lam in LAMS:
                        assert_routes_agree(op, lam)


@pytest.mark.parametrize("text", ("Dx1", "Dx1^2 + Dx2", "Dx1^3"))
def test_non_radial_symbols_free_of_tau(text):
    op = parse_operator(text, n=2)
    assert check_boost_invariance_fixed_gauge(op, 0).invariant
    rejected = check_boost_invariance_fixed_gauge(op, 1)
    assert not rejected.invariant and rejected.witness.reverify(op)
    for lam in (0, 1):
        assert_routes_agree(op, lam)


@pytest.mark.parametrize("text, n, lam", [
    ("Lap^8", 10, 0),
    ("(2i*Dt+Lap)^8", 6, 1),
    ("Dx1^2 + Dx2", 2, 0),
])
def test_accept_builds_no_generator_image(monkeypatch, text, n, lam):
    op = parse_operator(text, n=n)
    calls = {}
    for name in ("partial", "__mul__", "substitute", "evaluate"):
        def counted(*args, _name=name, _inner=getattr(MultiPoly, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(MultiPoly, name, counted)
    report = check_boost_invariance_fixed_gauge(op, lam)
    assert report.invariant and report.certificate == "zero-substitution-residue"
    assert calls == {}
