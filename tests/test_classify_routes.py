"""The one lam derivation against the image route and the old classifier routes.

Both classifiers and `check_boost_invariance_fixed_gauge` read their boost
stage off `_boost_gauge`, which works on the radial coefficients alone:
p = q(tau, |xi|^2) is invariant at gauge lam exactly when q_tau = 2*lam*q_s.
The check reads the radial coefficients through `radial_decompose`, not
through the rotation check, and must reach the same verdict at every lam
of the grid.  Two independent routes must also agree with it:

- `reference_classify.boost_invariant` applies every boost generator to
  the whole symbol polynomial, at each lam of a 61-value grid that
  includes 0, and must accept at every real lam the routine derives;
- `reference_classify` also holds the classifier routes the routine
  replaced, the order-2 slot reading with its own lam arithmetic and the
  power-form generator stage, and every verdict field must match.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    classify_power_form,
    classify_second_order,
    compose_const,
    parse_operator,
    synthesize,
)
from galinv.classify import _boost_gauge

import reference_classify
from conftest import random_constant_lpdo, random_gaussian

# 61 values, 0 first, so that polynomials in Lap alone come up early.
GRID = tuple(sorted((Fraction(k, 4) for k in range(-30, 31)), key=abs))
LAMS = (Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(3, 4))


def radial_term(n: int, j: int, k: int, c) -> LPDO:
    """c*Dt^j*Lap^k."""
    op = LPDO.time_derivative(n, j) if j else LPDO.identity(n)
    for _ in range(k):
        op = compose_const(op, LPDO.laplacian(n))
    return op.scaled(c)


def perturbed_power_form(seed: int, n: int, lam: Fraction, perturb: bool) -> LPDO:
    """sum a_j*(2i*lam*dt + Lap)^j of order <= 6, plus c*Dt^j*Lap^k terms."""
    rng = random.Random(seed)
    coeffs = [random_gaussian(rng) for _ in range(rng.randint(1, 4))]
    if not coeffs[-1]:
        coeffs[-1] = random_gaussian(rng) or 1
    op = synthesize(lam, coeffs, n)
    for _ in range(rng.randint(1, 2) if perturb else 0):
        j = rng.randint(0, 6)
        k = rng.randint(0, (6 - j) // 2)
        op = op + radial_term(n, j, k, random_gaussian(rng) or 1)
    return op


def verdict_fields(verdict) -> tuple:
    theta = getattr(verdict, "theta", None)
    report = verdict.report
    return (
        verdict.accepted, verdict.stage, verdict.detail,
        getattr(verdict, "alpha", None), getattr(verdict, "beta", None), verdict.lam,
        getattr(verdict, "lam_value", None), getattr(verdict, "coeffs", None),
        None if theta is None else (theta.kind, theta.lam),
        None if report is None else (report.invariant, report.certificate, str(report.witness)),
    )


def assert_routes_agree(op: LPDO, lams) -> None:
    assert verdict_fields(classify_second_order(op)) == verdict_fields(
        reference_classify.classify_second_order(op)
    )
    for lam in lams:
        assert verdict_fields(classify_power_form(op, lam)) == verdict_fields(
            reference_classify.classify_power_form(op, lam)
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 6))
def test_classifiers_match_references_on_random_operators(seed, n, order):
    op = random_constant_lpdo(random.Random(seed), n, order)
    assert_routes_agree(op, LAMS)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(LAMS), st.booleans())
def test_classifiers_match_references_on_power_forms(seed, n, lam, perturb):
    try:
        op = perturbed_power_form(seed, n, lam, perturb)
    except ValueError:  # the perturbation cancelled the operator
        assume(False)
    assert_routes_agree(op, LAMS)


def test_second_order_stages_match_references_on_named_operators():
    for text in ("2i*Dt + Lap", "Dt - Lap", "Dt^2 - Lap", "Dt^2 + Dt - Lap", "Lap + 3",
                 "Dt^2 + Dt", "Dt^2 + 5", "-(1/2)i*Dt + 3*Lap - 2i", "Lap^2", "Dt"):
        op = parse_operator(text, n=2)
        assert_routes_agree(op, LAMS)
    stages = {
        "Dt^2 - Lap": "a20-nonzero",
        "Dt^2 + Dt - Lap": "a20-nonzero",
        "Dt - Lap": "lambda-not-real",
        "Lap^2": "not-order-2",
    }
    for text, stage in stages.items():
        assert classify_second_order(parse_operator(text, n=2)).stage == stage
    accept = classify_second_order(parse_operator("Lap + 3", n=2))
    assert accept.accepted and accept.lam == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(GRID), st.booleans())
def test_boost_gauge_matches_the_boost_decider_on_a_lam_grid(seed, n, lam, perturb):
    try:
        op = perturbed_power_form(seed, n, lam, perturb)
    except ValueError:
        assume(False)
    radial = check_rotation_invariance(op).radial
    for grid_lam in GRID:
        decided = _boost_gauge(radial, grid_lam) is not None
        assert decided == check_boost_invariance_fixed_gauge(op, grid_lam).invariant, grid_lam
    derived = _boost_gauge(radial)
    if derived is not None and derived.im == 0:
        assert check_boost_invariance_fixed_gauge(op, derived.re).invariant


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(GRID), st.booleans())
def test_boost_gauge_matches_the_image_route_on_a_lam_grid(seed, n, lam, perturb):
    try:
        op = perturbed_power_form(seed, n, lam, perturb)
    except ValueError:
        assume(False)
    radial = check_rotation_invariance(op).radial
    for grid_lam in GRID:
        decided = _boost_gauge(radial, grid_lam) is not None
        assert decided == reference_classify.boost_invariant(op, grid_lam), grid_lam
    derived = _boost_gauge(radial)
    if derived is not None and derived.im == 0:
        assert reference_classify.boost_invariant(op, derived.re)
    if not perturb and lam and op.order:
        assert derived == lam


def test_boost_gauge_cases():
    def gauge(text, lam=None):
        op = parse_operator(text, n=2)
        return _boost_gauge(check_rotation_invariance(op).radial, lam)

    assert gauge("7") == 0 and gauge("7", Fraction(5)) == 5  # constant: every lam
    assert gauge("Lap^2 + Lap") == 0  # free of tau: lam = 0 only
    assert gauge("Lap^2 + Lap", Fraction(1)) is None
    assert gauge("(2i*Dt + Lap)^3", Fraction(1)) == 1
    assert gauge("(2i*Dt + Lap)^3") == 1
    assert gauge("(-1i*Dt + Lap)^2 + 4") == Fraction(-1, 2)
    assert gauge("Dt^2 + Lap") is None  # zero partner coefficient
    assert gauge("Dt^2 + Dt - Lap") is None  # lam from Dt, but Dt^2 is left over
