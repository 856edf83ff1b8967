"""The lean paths of the oracle and the boost witness against their old routes.

`boost_commutator_defect` and `plane_wave` build theta, the pull-back
bindings and the plane-wave phase from their terms;
`reference_oracle.cached_differentiate`, once `ExpWave.differentiate`,
builds its result without the constructor's checks; `MultiPoly.__mul__`
shifts keys when a factor has one term; `MultiPoly.extend` of a constant
keeps its one key.  `reference_oracle.py` and `reference_multipoly.py`
hold the routes these replaced.  Each pair must give identical values,
denominators, packed terms and errors.  The plane wave and the
pulled-back wave never take the oracle's general chain-rule step, also
under variable coefficients, so boost-scan's fast path cannot be lost
without a failing test.  The boost witness runs the
transport law of its points on `Fraction`s, and each point it returns must
move the symbol under the transport law of
`reference_oracle.boosted_frequency` too.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galinv import (
    MAX_TOTAL_DEGREE,
    ExpWave,
    GaussianRational,
    MultiPoly,
    boost_commutator_defect,
    check_boost_invariance_fixed_gauge,
    parse_operator,
    plane_wave,
    symbol_of,
    universe,
)
from galinv.checks import _boost_witness

import reference_multipoly
import reference_oracle as ref
from reference_oracle import boosted_frequency
from conftest import assert_same_internals, random_constant_lpdo, random_variable_lpdo

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
lams = st.one_of(st.just(Fraction(0)), small)
UNIVERSES = [tuple(f"v{i}" for i in range(w)) for w in range(1, 6)] + [universe.symbol_vars(3)]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("n", range(1, 7))
def test_plane_wave_matches_product_route(n):
    wave, old = plane_wave(n), ref.plane_wave(n)
    assert_same_internals(wave.amplitude, old.amplitude)
    assert_same_internals(wave.phase, old.phase)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.booleans(), st.integers(0, 2**32), lams, small,
       st.lists(small, min_size=3, max_size=3))
@example(1, 2, True, 7, Fraction(1), Fraction(5, 7), [Fraction(1, 2), 0, 0])
@example(2, 2, False, 11, Fraction(0), Fraction(5, 7), [Fraction(-3, 2), Fraction(2), 0])
def test_defect_matches_reference_route(n, order, constant, seed, lam, c, velocity):
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    v = velocity[:n]
    got = boost_commutator_defect(op, lam, v, c)
    assert_same_internals(got, ref.boost_commutator_defect(op, lam, v, c))
    assert_same_internals(outcome(boost_commutator_defect, op, lam, v + [1]),
                          outcome(ref.boost_commutator_defect, op, lam, v + [1]))


# Operators whose coefficients hold t and x: the waves stay lean all the same.
VARIABLE_OPERATORS = [
    ("t*(2i*Dt + Lap)", 2),
    ("x1*Dx1 + t*t*Dt^3", 1),
    ("x1*x1 + 2i*t*x1*Dx1 - t*t*Dx1*Dx1", 1),
    ("(2i*Dt+Lap)^8", 2),
]


def _general_step_refused(monkeypatch):
    """Make the general chain-rule step, dA + A*(i*dphi), raise: it went
    through `MultiPoly.partial`, which the oracle no longer calls."""
    def refused(self, name):
        raise AssertionError(f"general step along {name}")

    monkeypatch.setattr(MultiPoly, "partial", refused)


@pytest.mark.parametrize("lam", [0, 1, -2])
@pytest.mark.parametrize("text, n", VARIABLE_OPERATORS)
def test_plane_waves_never_take_the_general_step(monkeypatch, text, n, lam):
    """The plane wave and the pulled-back wave have gradients free of t and x
    and an amplitude of 1, so every step is the product A*(i*dphi) alone."""
    op = parse_operator(text, n=n)
    v = [Fraction(1, 2), -1][:n]
    expected = boost_commutator_defect(op, lam, v, Fraction(1, 3))
    _general_step_refused(monkeypatch)
    assert_same_internals(boost_commutator_defect(op, lam, v, Fraction(1, 3)), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32), lams, st.lists(small, min_size=3, max_size=3))
def test_constant_operators_never_take_the_general_step(n, order, seed, lam, velocity):
    op = random_constant_lpdo(random.Random(seed), n, order)
    expected = boost_commutator_defect(op, lam, velocity[:n])
    with pytest.MonkeyPatch.context() as monkeypatch:
        _general_step_refused(monkeypatch)
        assert_same_internals(boost_commutator_defect(op, lam, velocity[:n]), expected)


@st.composite
def real_polys(draw, names):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = [0] * len(names)
        for _ in range(draw(st.integers(0, 3))):
            exps[draw(st.integers(0, len(names) - 1))] += 1
        terms[tuple(exps)] = draw(small)
    return MultiPoly(names, terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lean_derivative_is_the_checked_wave(n, data):
    """Amplitudes here depend on t and x, so the dA term of every step counts."""
    names = universe.symbol_vars(n)
    coords = [universe.TIME] + [universe.space(a) for a in range(1, n + 1)]
    phase = data.draw(real_polys(names)) + plane_wave(n).phase
    amplitude = data.draw(real_polys(names)) * GaussianRational(1, 2) + MultiPoly.var(names, data.draw(st.sampled_from(coords)))
    wave = ExpWave(amplitude, phase)
    step = wave
    for name in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4)):
        expected = ref.differentiate(step, name)
        step = ref.cached_differentiate(step, name)
        assert_same_internals(step.amplitude, expected.amplitude)
        assert step.phase is wave.phase and step._gradient is wave._gradient
        assert ExpWave(step.amplitude, step.phase) == step
    with pytest.raises(ValueError, match="real-valued"):
        ExpWave(amplitude, phase * GaussianRational(0, 1) + 1)
    with pytest.raises(ValueError, match="share a universe"):
        ExpWave(MultiPoly.const(names[:-1], 1), phase)


@st.composite
def term_maps(draw, variables, max_terms):
    """Exponent maps with now and then one high power, to reach the cap."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * len(variables)
        if draw(st.integers(0, 4)) == 0:
            exps[draw(st.integers(0, len(variables) - 1))] = draw(st.sampled_from((31, 32, 33, 64)))
        else:
            for _ in range(draw(st.integers(0, 3))):
                exps[draw(st.integers(0, len(variables) - 1))] += 1
        terms[tuple(exps)] = draw(st.one_of(small, st.builds(GaussianRational, small, small)))
    return terms


def assert_product_matches_double_loop(variables, many_terms, one_terms):
    many, one = MultiPoly(variables, many_terms), MultiPoly(variables, one_terms)
    for left, right in ((many, one), (one, many), (one, one)):
        got = outcome(operator.mul, left, right)
        assert_same_internals(got, outcome(reference_multipoly.double_loop_mul, left, right))
        if got[0] == "ok":
            assert_same_internals(got[1], MultiPoly(variables, got[1].terms))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(UNIVERSES), st.data())
def test_one_term_products_match_double_loop(variables, data):
    assert_product_matches_double_loop(
        variables, data.draw(term_maps(variables, 4)), data.draw(term_maps(variables, 1))
    )


@pytest.mark.parametrize("variables, many_terms, one_terms", [
    (("v0",), {(32,): 1, (0,): Fraction(1, 2)}, {(33,): 3}),  # 65 passes the cap
    (("v0", "v1"), {}, {(1, 2): Fraction(2, 3)}),  # a zero factor
    (("v0", "v1"), {(1, 0): 2, (0, 1): 4}, {}),
    (("v0", "v1"), {(1, 0): 2, (0, 1): 4}, {(0, 0): Fraction(1, 2)}),  # the content divides out
])
def test_one_term_product_edge_cases(variables, many_terms, one_terms):
    assert_product_matches_double_loop(variables, many_terms, one_terms)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNIVERSES), st.one_of(small, st.builds(GaussianRational, small, small)), st.data())
def test_constant_extend_matches_term_route(variables, value, data):
    const = MultiPoly.const(variables, value)
    extra = data.draw(st.lists(st.sampled_from(("w0", "w1", variables[0])), max_size=3))
    target = tuple(data.draw(st.permutations(variables + tuple(extra))))
    for goal in (target, target[1:], ()):
        got = outcome(const.extend, goal)
        old = reference_multipoly.MultiPoly(variables, {(0,) * len(variables): value})
        try:
            want = "ok", MultiPoly(goal, old.extend(goal).terms)
        except ValueError as exc:
            want = "ValueError", str(exc)
        assert_same_internals(got, want)


def _point(n, data):
    tau = data.draw(small)
    xi = [data.draw(small) for _ in range(n)]
    v = [data.draw(small) for _ in range(n)]
    return tau, xi, v


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), lams, small, st.data())
def test_concrete_boosted_frequency_is_the_symbolic_law_at_the_point(n, lam, c, data):
    tau, xi, v = _point(n, data)
    concrete = boosted_frequency(n, lam, v, tau, xi, c=c)
    symbolic = boosted_frequency(n, lam)
    point = {universe.FREQ_TIME: tau}
    for a in range(1, n + 1):
        point[universe.freq_space(a)] = xi[a - 1]
        point[universe.boost(a)] = v[a - 1]
    for here, law in zip((concrete.tau, *concrete.xi), (symbolic.tau, *symbolic.xi)):
        assert here.variables == universe.boost_vars(n) and here.is_constant
        assert here.constant_value() == law.evaluate(point)
    assert concrete.phase_const == c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), lams)
def test_boost_witness_moves_the_symbol_under_the_transport_law(seed, n, order, lam):
    """Each witness re-verifies through the oracle, and p differs at its
    point and at the constant values of `boosted_frequency` there."""
    op = random_constant_lpdo(random.Random(seed), n, order)
    report = check_boost_invariance_fixed_gauge(op, lam)
    assume(not report.invariant)
    p = symbol_of(op).poly
    witness = _boost_witness(op, lam, p)
    assert witness == report.witness and witness.reverify(op)
    moved = boosted_frequency(n, lam, witness.v, witness.tau, witness.xi)
    freq = [universe.FREQ_TIME] + [universe.freq_space(a) for a in range(1, n + 1)]
    here = dict(zip(freq, (witness.tau, *witness.xi)))
    there = dict(zip(freq, (c.constant_value() for c in (moved.tau, *moved.xi))))
    assert p.evaluate(there) != p.evaluate(here)


def test_degree_cap_is_kept_on_one_term_products():
    names = ("a", "b")
    top = MultiPoly(names, {(MAX_TOTAL_DEGREE, 0): 1})
    with pytest.raises(ValueError, match=f"term degree {MAX_TOTAL_DEGREE + 1} exceeds the cap"):
        top * MultiPoly.var(names, "b")
