"""Boost invariance: the radial decider against independent oracles.

The package decides boost invariance on the radial gauge equation: a
symbol p is fixed by every gauged boost exactly when it is free of tau at
lam = 0, and otherwise when it is radial with q_tau = 2*lam*q_s
(`test_boost_decider` holds the generator-image route it replaced).  An
older route lives here as the reference: expand p at the boosted frequency
over (tau, xi, v), subtract p, test the residue for zero, and search
seeded rational points for a nonzero value of the residue.  The differentiation
oracle and the power-form classifier give two more routes to agree with.
The power-form classifier decides its last stage from the radial
coefficients (`test_classify_routes`), and its older route, the mu
substitution of `reference_symbols.reference_power_form`, is a reference.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    BoostWitness,
    GaussianRational,
    InconsistencyError,
    boost_commutator_defect,
    check_boost_invariance_fixed_gauge,
    classify_power_form,
    compose_const,
    parse_operator,
    symbol_of,
    synthesize,
)
from galinv import checks, universe
from galinv.checks import _boost_witness
from galinv.universe import random_rational

from conftest import random_constant_lpdo, random_fraction, random_gaussian
from reference_classify import conj_boost_gauge, fraction_witness
from reference_symbols import reference_power_form

# The decider's witness seed: both routes walk the same point sequence.
WITNESS_SEED = 39021
LAMS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def residue_route(op: LPDO, lam) -> BoostWitness | None:
    """None when the substitution residue is zero, else its first witness."""
    lam = Fraction(lam)
    names = universe.boost_vars(op.n)
    residue = conj_boost_gauge(op, lam) - symbol_of(op).poly.extend(names)
    if residue.is_zero:
        return None
    rng = random.Random(WITNESS_SEED)
    bound = 3
    for attempt in range(10_000):
        if attempt and attempt % 100 == 0:
            bound *= 2
        point = {name: random_rational(rng, bound) for name in residue.variables}
        if residue.evaluate(point):
            return BoostWitness(
                lam,
                tuple(point[universe.boost(a)] for a in range(1, op.n + 1)),
                point[universe.FREQ_TIME],
                tuple(point[universe.freq_space(a)] for a in range(1, op.n + 1)),
            )
    raise InconsistencyError("nonzero residue but no witnessing point found")


def assert_routes_agree(op: LPDO, lam) -> None:
    report = check_boost_invariance_fixed_gauge(op, lam)
    reference = residue_route(op, lam)
    assert report.invariant == (reference is None)
    if reference is None:
        assert report.certificate == "zero-substitution-residue"
        assert report.witness is None
        return
    witness = report.witness
    got = (witness.lam, witness.v, witness.tau, witness.xi)
    assert got == (reference.lam, reference.v, reference.tau, reference.xi)
    assert report.detail == f"residue evaluates to a nonzero value at v={witness.v}"
    assert witness.reverify(op)


# ------------------------------------------------------------------ property

small = st.integers(-3, 3)
gaussians = st.builds(
    lambda re, im: GaussianRational(Fraction(re), Fraction(im)), small, small
)


@st.composite
def operators(draw) -> LPDO:
    """Random constant operators of order <= 4 at n = 1..3, or power forms
    sum a_j (2i*lam'*dt + Lap)^j with K <= 2 at some lam' in LAMS."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        lam = draw(st.sampled_from(LAMS))
        coeffs = draw(st.lists(gaussians, min_size=1, max_size=3))
        if not coeffs[-1]:
            coeffs[-1] = GaussianRational(Fraction(1))
        return synthesize(lam, coeffs, n)
    return draw(constant_operators(n, 4))


@st.composite
def constant_operators(draw, n: int, order: int) -> LPDO:
    """Up to five random constant terms of order <= `order` at dimension n."""
    keys = st.tuples(
        st.integers(0, order), st.lists(st.integers(0, order), min_size=n, max_size=n)
    ).filter(lambda k: k[0] + sum(k[1]) <= order)
    entries = draw(st.lists(st.tuples(keys, gaussians), min_size=1, max_size=5))
    table = {(j, tuple(alpha)): c for (j, alpha), c in entries}
    if not any(table.values()):
        table[(0, (0,) * n)] = GaussianRational(Fraction(1))
    return LPDO(n, table)


@settings(max_examples=40, deadline=None)
@given(operators(), st.sampled_from(LAMS))
def test_generator_decider_matches_residue_route(op, lam):
    assert_routes_agree(op, lam)


def test_power_forms_at_matching_and_mismatched_lam():
    for n in (1, 2, 3):
        for lam in LAMS:
            op = synthesize(lam, [2, -1, Fraction(1, 3)], n)
            for at in LAMS:
                report = check_boost_invariance_fixed_gauge(op, at)
                assert report.invariant == (at == lam)
                assert_routes_agree(op, at)


# ------------------------------------------------------------------ regressions


def test_high_time_derivative_rejects_fast():
    op = LPDO.time_derivative(2, 30)
    start = time.perf_counter()
    report = check_boost_invariance_fixed_gauge(op, 1)
    assert time.perf_counter() - start < 1.0
    assert not report.invariant
    assert report.witness.reverify(op)


def test_witness_search_fails_fast_when_routes_disagree():
    # No point moves an invariant symbol, so the search exhausts its
    # budget; the bounded budget raises in well under a second.
    op = synthesize(1, [0, 0, 1], 2)
    start = time.perf_counter()
    with pytest.raises(InconsistencyError):
        _boost_witness(op, Fraction(1), symbol_of(op).poly)
    assert time.perf_counter() - start < 1.0


def test_witness_search_doubles_its_bound_after_100_points(monkeypatch):
    """The first 100 points compare equal, so the witness is the 101st: the
    seeded draws of 100 points over `boost_vars(n)` at bound 3, then one
    point at bound 6.  Each point takes two calls of the plan kernel, the
    drawn frequency second."""
    n, lam = 2, Fraction(1)
    op = parse_operator("Dt + Dx1^2 + 3*Dx2", n)
    p = symbol_of(op).poly
    kernel, calls = checks._plan_value, []

    def equal_at_first(plan, values):
        calls.append(values)
        return (0, 0, 1) if len(calls) <= 200 else kernel(plan, values)

    monkeypatch.setattr(checks, "_plan_value", equal_at_first)
    witness = _boost_witness(op, lam, p)
    monkeypatch.undo()
    rng = random.Random(WITNESS_SEED)
    for bound in [3] * 100 + [6]:
        point = {name: random_rational(rng, bound) for name in universe.boost_vars(n)}
    v = tuple(point[universe.boost(a)] for a in range(1, n + 1))
    xi = tuple(point[universe.freq_space(a)] for a in range(1, n + 1))
    assert witness == BoostWitness(lam, v, point[universe.FREQ_TIME], xi)
    last = {name: (Fraction(a, d), b) for name, (a, b, d) in calls[-1].items()}
    freq = [universe.FREQ_TIME] + [universe.freq_space(a) for a in range(1, n + 1)]
    assert len(calls) == 202 and last == {name: (point[name], 0) for name in freq}
    assert max(max(abs(x.numerator), x.denominator) for x in point.values()) > 3
    assert witness.reverify(op)


def witness_outcome(search, op, lam, p):
    try:
        return search(op, lam, p)
    except InconsistencyError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), st.sampled_from(LAMS), st.booleans())
def test_integer_witness_search_equals_the_fraction_route(seed, n, order, lam, invariant):
    """The integer search draws the same points and returns the same
    witness, or exhausts the same 500 points, as `fraction_witness`.  A
    power form at lam is invariant, so both searches compare p at all 500
    points, and any fault in the boosted frequency shows as a witness."""
    rng = random.Random(seed)
    if invariant:
        op = synthesize(lam, [random_gaussian(rng) for _ in range(order)] + [1], n)
    else:
        op = random_constant_lpdo(rng, n, order)
    p = symbol_of(op).poly
    assert witness_outcome(_boost_witness, op, lam, p) == witness_outcome(fraction_witness, op, lam, p)


def test_named_operators_agree_with_residue_route():
    for n in (1, 2, 3):
        for lam in LAMS:
            for op in (
                LPDO.time_derivative(n),
                LPDO.space_derivative(n, n),
                LPDO.laplacian(n),
                LPDO.identity(n),
                LPDO.schrodinger_factor(n, 1),
            ):
                assert_routes_agree(op, lam)


# ------------------------------------------------------------------ three-way


def test_power_form_boost_check_and_oracle_agree():
    """classify_power_form accepts <=> boost invariant <=> zero oracle
    defect at three seeded velocities, on random constant operators with
    seeded power forms among them, at lam != 0."""
    rng = random.Random(60917)
    seen = {True: 0, False: 0}
    for _ in range(30):
        n = rng.randint(1, 3)
        lam = rng.choice(LAMS[1:])
        expected = None
        if rng.random() < 0.5:
            own = lam if rng.random() < 0.6 else rng.choice(LAMS)
            coeffs = [random_gaussian(rng) for _ in range(rng.randint(1, 2))]
            coeffs.append(random_gaussian(rng) or GaussianRational(Fraction(1)))
            op = synthesize(own, coeffs, n)
            if own == lam:
                expected = tuple(coeffs)
        else:
            op = random_constant_lpdo(rng, n, rng.randint(1, 4))
        verdict = classify_power_form(op, lam)
        accepted = verdict.accepted
        if accepted:
            assert verdict.reverify(op), op
        if expected is not None:
            assert verdict.coeffs == expected, op
        invariant = check_boost_invariance_fixed_gauge(op, lam).invariant
        velocities = [
            tuple(random_fraction(rng) or Fraction(1) for _ in range(n)) for _ in range(3)
        ]
        zero_defect = all(
            boost_commutator_defect(op, lam, v).is_zero for v in velocities
        )
        assert accepted == invariant == zero_defect, op
        seen[accepted] += 1
    assert seen[True] >= 5 and seen[False] >= 5


# ------------------------------------------------------------- power form

POWER_LAMS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-3, 4))


@st.composite
def power_form_inputs(draw) -> tuple[LPDO, Fraction]:
    """(op, lam): a random constant operator of order <= 6, or a power form
    of degree <= 3 synthesized at lam or at another gauge in POWER_LAMS,
    sometimes plus a radial term c * Dt^j Lap^k."""
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(POWER_LAMS))
    if draw(st.booleans()):
        return draw(constant_operators(n, 6)), lam
    own = lam if draw(st.booleans()) else draw(st.sampled_from(POWER_LAMS))
    coeffs = draw(st.lists(gaussians, min_size=1, max_size=4))
    if not coeffs[-1]:
        coeffs[-1] = GaussianRational(Fraction(1))
    op = synthesize(own, coeffs, n)
    if draw(st.booleans()):
        j, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        c = draw(gaussians.filter(bool))
        term = LPDO.time_derivative(n, j).scaled(c)
        for _ in range(k):
            term = compose_const(term, LPDO.laplacian(n))
        assume(term != op.scaled(-1))
        op = op + term
    return op, lam


@settings(max_examples=60, deadline=None)
@given(power_form_inputs())
def test_power_form_matches_mu_substitution_route(case):
    op, lam = case
    verdict = classify_power_form(op, lam)
    assert (verdict.accepted, verdict.stage, verdict.coeffs) == reference_power_form(op, lam)
