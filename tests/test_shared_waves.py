"""Values the oracle shares across calls, and the work one call does.

Each dimension's universes and plane wave are built once and shared, so
the plane wave's cache of i*dphi outlives a call.  These tests check that
the sharing holds, that no call leaves a shared value changed, and that
no value class lets a field be deleted.  They also pin how much work a
call does: `boost_commutator_defect` pulls the phase back once, and
`apply_lpdo` builds at most one polynomial per derivative key; the packed
chain of `reference_oracle.chain_apply_lpdo`, which steps waves that
`apply_lpdo` refuses, must match the reference when terms cancel.  `product_sum` and `MultiPoly.__mul__` over a universe
that is equal to, but not the same object as, the shared one must match
the reference sum, errors included.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MAX_TOTAL_DEGREE,
    ExpWave,
    GaussianRational,
    I_UNIT,
    MultiPoly,
    apply_lpdo,
    boost_commutator_defect,
    parse_operator,
    plane_wave,
    universe,
)
from galinv.multipoly import product_sum

import reference_oracle as ref
from conftest import assert_same_internals, internals, random_constant_lpdo, random_variable_lpdo

UNIVERSES = (universe.coeff_vars, universe.symbol_vars, universe.boost_vars)
# sum_k (2i*Dt + Lap)^k for k = 0..4 at n = 3: order 8, 70 derivative keys.
POWER_FORM = " + ".join(f"(2i*Dt+Lap)^{k}" for k in range(5))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("n", range(1, 7))
def test_each_dimension_builds_its_universes_and_plane_wave_once(n):
    for make in UNIVERSES:
        assert make(n) is make(n)
    wave = plane_wave(n)
    assert wave is plane_wave(n)
    assert wave.variables == universe.symbol_vars(n)
    # A sweep over every dimension keeps only the most recent ones built.
    for make in (*UNIVERSES, plane_wave):
        assert make.cache_info().maxsize == universe.CACHED_DIMENSIONS


def test_oracle_calls_leave_the_shared_plane_wave_unchanged():
    rng = random.Random(22)
    for n in (1, 2, 3):
        ops = [parse_operator("Dt + Lap", n=n)]  # steps along every coordinate
        ops += [random_constant_lpdo(rng, n, order) for order in (1, 2, 3)]
        ops += [random_variable_lpdo(rng, n, order) for order in (1, 2)]
        for op in ops:
            apply_lpdo(op, plane_wave(n))
            for lam in (0, 1, Fraction(-3, 2)):
                boost_commutator_defect(op, lam, [Fraction(a - 1, 2) for a in range(n)], c=Fraction(1, 3))
        wave, fresh = plane_wave(n), ref.plane_wave(n)
        assert_same_internals(wave.amplitude, fresh.amplitude)
        assert_same_internals(wave.phase, fresh.phase)
        coordinates = [universe.TIME] + [universe.space(a) for a in range(1, n + 1)]
        assert set(coordinates) <= set(wave._gradient) <= set(wave.variables)
        for name, i_dphi in wave._gradient.items():
            assert_same_internals(i_dphi, wave.phase.partial(name) * I_UNIT)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.booleans(), st.integers(0, 2**32),
       st.sampled_from([0, 1, Fraction(-3, 2), Fraction(1, 2)]))
def test_a_repeated_defect_call_gives_identical_internals(n, order, constant, seed, lam):
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    v = [Fraction(seed % (a + 3) - 1, a + 1) for a in range(n)]
    first = boost_commutator_defect(op, lam, v, Fraction(2, 5))
    assert_same_internals(boost_commutator_defect(op, lam, v, Fraction(2, 5)), first)
    assert_same_internals(first, ref.boost_commutator_defect(op, lam, v, Fraction(2, 5)))


def packed(pairs):
    """The pairs as `product_sum` takes them: each q as (den, num)."""
    return [(p, (q._den, q._num)) for p, q in pairs]


def _top(names, coefficient=1):
    """A polynomial at the cap: its first variable to the power 64, plus 1."""
    return MultiPoly(names, {(MAX_TOTAL_DEGREE,) + (0,) * (len(names) - 1): coefficient, (0,) * len(names): 1})


@pytest.mark.parametrize("n", [1, 3])
def test_sums_over_an_equal_but_distinct_universe_match_the_reference(n):
    shared = universe.symbol_vars(n)
    names = tuple(list(shared))  # equal to the shared universe, not the same object
    assert names == shared and names is not shared
    coeff_names = tuple(list(universe.coeff_vars(n)))
    rng = random.Random(n)
    x1 = MultiPoly.var(coeff_names, universe.space(1))
    coefficients = [
        MultiPoly.zero(coeff_names),
        MultiPoly.const(coeff_names, GaussianRational(Fraction(3, 2), -2)),
        MultiPoly.const(universe.coeff_vars(n), Fraction(-5, 7)),  # the shared universe
        x1 * Fraction(2, 3),
        x1 * MultiPoly.var(coeff_names, universe.TIME) + 1,
    ]
    amplitudes = [
        plane_wave(n).phase * GaussianRational(1, 2) + Fraction(1, 3),
        MultiPoly(names, {(0,) * len(names): Fraction(2, 9), (1,) + (0,) * (len(names) - 1): 3}),
        _top(names),
        _top(shared, Fraction(1, 5)),
    ]
    for p in coefficients:
        for q in amplitudes:
            want = outcome(ref.product_sum, names, [(p, q)])
            assert_same_internals(outcome(product_sum, names, packed([(p, q)])), want)
            assert_same_internals(outcome(product_sum, shared, packed([(p, q)])),
                                  outcome(ref.product_sum, shared, [(p, q)]))
            assert_same_internals(outcome(operator.mul, p.extend(names), q), want)
    # A q at the cap times a constant is legal; times a monomial it fails
    # with the product's message, in the pair that passes the cap.
    assert outcome(product_sum, names, packed([(coefficients[1], _top(names))]))[0] == "ok"
    message = f"term degree {MAX_TOTAL_DEGREE + 1} exceeds the cap of {MAX_TOTAL_DEGREE}"
    pairs = [(coefficients[2], amplitudes[0]), (coefficients[3], _top(names))]
    assert_same_internals(outcome(product_sum, names, packed(pairs)), ("ValueError", message))
    assert_same_internals(outcome(ref.product_sum, names, pairs), ("ValueError", message))
    for _ in range(20):  # mixed sums, in a random order
        pairs = [(rng.choice(coefficients), rng.choice(amplitudes[:3])) for _ in range(rng.randint(1, 5))]
        assert_same_internals(outcome(product_sum, names, packed(pairs)), outcome(ref.product_sum, names, pairs))


@st.composite
def unit_polys(draw, names):
    """Few terms with coefficients in {-1, 1, 2}, so that terms often cancel."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * len(names)
        for _ in range(draw(st.integers(0, 2))):
            exps[draw(st.integers(0, len(names) - 1))] += 1
        terms[tuple(exps)] = draw(st.sampled_from((-1, 1, 2)))
    return MultiPoly(names, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_packed_chain_matches_the_reference_when_terms_cancel(data):
    names = universe.symbol_vars(1)
    wave = ExpWave(data.draw(unit_polys(names)), data.draw(unit_polys(names)))
    keys = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=3))
    op = LPDO(1, {(j, (k,)): 1 for j, k in keys})
    assert_same_internals(outcome(lambda: ref.chain_apply_lpdo(op, wave).amplitude),
                          outcome(lambda: ref.apply_lpdo(op, wave).amplitude))


def test_the_packed_chain_drops_cancelled_terms_and_checks_the_cap_at_each_step():
    names = universe.symbol_vars(1)
    t, tau = (MultiPoly.var(names, name) for name in (universe.TIME, universe.FREQ_TIME))
    # d/dt of the amplitude cancels a term of its product with i*dphi.
    wave = ExpWave(1 + tau * 2, 1 + t * tau * 2 - t)
    op = LPDO(1, {(3, (0,)): 1})
    assert_same_internals(apply_lpdo(op, wave).amplitude, ref.apply_lpdo(op, wave).amplitude)
    # i*dphi has degree 39, so the second step passes the cap, at degree 78.
    wave = ExpWave(MultiPoly.const(names, 1), t**40)
    with pytest.raises(ValueError, match="term degree 78 exceeds the cap"):
        ref.apply_lpdo(op, wave)
    with pytest.raises(ValueError, match="term degree 78 exceeds the cap"):
        ref.chain_apply_lpdo(op, wave)
    # Its gradient holds t, so `apply_lpdo` refuses the wave before any step.
    with pytest.raises(ValueError, match="^the gradient along 't' depends on a stepped coordinate$"):
        apply_lpdo(op, wave)


def _counting(monkeypatch, name):
    calls = [0]
    raw = vars(MultiPoly)[name]
    inner = raw.__func__ if isinstance(raw, classmethod) else raw

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(MultiPoly, name, classmethod(counted) if isinstance(raw, classmethod) else counted)
    return calls


def test_one_defect_call_pulls_the_phase_back_once(monkeypatch):
    op = parse_operator(POWER_FORM, n=3)
    assert len(op.coeffs) == 70 and op.order == 8
    expected = ref.boost_commutator_defect(op, 1, [Fraction(1, 2), -1, 2])
    calls = _counting(monkeypatch, "substitute")
    got = boost_commutator_defect(op, 1, [Fraction(1, 2), -1, 2])
    assert calls[0] <= 3
    assert_same_internals(got, expected)


def test_apply_lpdo_builds_one_polynomial_per_key(monkeypatch):
    op = parse_operator(POWER_FORM, n=3)
    wave = plane_wave(3)
    expected = apply_lpdo(op, wave)  # fills the shared wave's cache of i*dphi
    calls = _counting(monkeypatch, "_make")
    got = apply_lpdo(op, wave)
    assert calls[0] <= len(op.coeffs) + 1
    assert_same_internals(got.amplitude, expected.amplitude)
    assert_same_internals(got.amplitude, ref.apply_lpdo(op, ref.plane_wave(3)).amplitude)


def test_values_refuse_deletion():
    wave = plane_wave(1)
    p = MultiPoly.var(universe.symbol_vars(1), universe.TIME) + 2
    g = GaussianRational(Fraction(1, 2), 3)
    op = LPDO.laplacian(2)
    cases = [
        (wave, "amplitude", "ExpWave is immutable"),
        (wave, "_gradient", "ExpWave is immutable"),
        (p, "_num", "MultiPoly is immutable"),
        (p, "variables", "MultiPoly is immutable"),
        (g, "_t", "GaussianRational is immutable"),
        (op, "n", "LPDO is immutable"),
    ]
    before = [(internals(wave.amplitude), internals(wave.phase)), internals(p), g._t, op.n]
    for target, name, message in cases:
        with pytest.raises(AttributeError, match=message):
            delattr(target, name)
    assert before == [(internals(wave.amplitude), internals(wave.phase)), internals(p), g._t, op.n]
    assert plane_wave(1) is wave
