"""The differentiation oracle against its references, and its independence.

`reference_oracle.cached_differentiate` is the chain-rule step the package
had as `ExpWave.differentiate`: it reads i*dphi from the wave's cache and
hands the cache to the derivative, which keeps the phase.
`reference_oracle.chain_apply_lpdo` steps a chain of such derivatives, and
`apply_lpdo` takes only the lean waves among them.  Each must give the
same waves, with the same internals, as the route that takes the phase
partial afresh at every step.  The oracle must also run with every symbol
routine and decider broken.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    ExpWave,
    GaussianRational,
    MultiPoly,
    apply_lpdo,
    boost_commutator_defect,
    boost_phase_poly,
    check_boost_invariance_fixed_gauge,
    plane_wave,
    universe,
)

import reference_oracle as ref
from reference_oracle import apply_plane_wave
from conftest import assert_same_internals, random_constant_lpdo, random_variable_lpdo

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def assert_same_wave(wave: ExpWave, reference: ExpWave) -> None:
    assert_same_internals(wave.amplitude, reference.amplitude)
    assert_same_internals(wave.phase, reference.phase)


@st.composite
def real_polys(draw, names, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * len(names)
        for _ in range(draw(st.integers(0, 2))):
            exps[draw(st.integers(0, len(names) - 1))] += 1
        terms[tuple(exps)] = draw(small)
    return MultiPoly(names, terms)


@st.composite
def waves(draw, n):
    """A wave built by plane_wave, then maybe pulled back, gauged or given
    a polynomial amplitude."""
    names = universe.symbol_vars(n)
    wave = plane_wave(n)
    if draw(st.booleans()):
        t = MultiPoly.var(names, universe.TIME)
        wave = ref.substitute(wave, {
            universe.space(a): MultiPoly.var(names, universe.space(a)) - t * draw(small)
            for a in range(1, n + 1)
        })
    if draw(st.booleans()):
        v = [draw(small) for _ in range(n)]
        lam = draw(small.filter(bool))
        wave = ref.with_phase_added(wave, boost_phase_poly(lam, draw(small), n, v=v).extend(names))
    if draw(st.booleans()):
        wave = ExpWave(draw(real_polys(names)) * GaussianRational(1, 1) + 1, wave.phase)
    return wave


def chain(wave, names, step):
    out = [wave]
    for name in names:
        out.append(step(out[-1], name))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_differentiate_chains_match_reference_formula(n, data):
    names = universe.symbol_vars(n)
    wave = data.draw(waves(n))
    steps = data.draw(st.lists(st.sampled_from(names), max_size=5))
    for got, expected in zip(chain(wave, steps, ref.cached_differentiate), chain(wave, steps, ref.differentiate)):
        assert_same_wave(got, expected)
    # The same name before and after a new phase: a cache kept across the
    # change would reuse the old phase's gradient.  Every symbol variable
    # occurs in the phase, so scaling one changes its partial.
    name = data.draw(st.sampled_from(names))
    extra = MultiPoly.var(names, name) * data.draw(small.filter(bool)) + data.draw(real_polys(names))
    scale = data.draw(small.filter(lambda k: k not in (0, 1)))
    shift = {name: MultiPoly.var(names, name) * scale + data.draw(small)}
    before = ref.cached_differentiate(wave, name)
    for moved in (ref.with_phase_added(before, extra), ref.substitute(before, shift),
                  ref.with_phase_added(wave, extra)):
        twice = chain(moved, [name, name], ref.cached_differentiate)
        assert_same_wave(twice[1], ref.differentiate(moved, name))
        assert_same_wave(twice[2], ref.differentiate(ref.differentiate(moved, name), name))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.booleans(), st.integers(0, 2**32), st.data())
def test_apply_lpdo_matches_reference_route(n, order, constant, seed, data):
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    wave = data.draw(waves(n))
    expected = ref.apply_lpdo(op, wave)
    assert_same_wave(ref.chain_apply_lpdo(op, wave), expected)
    if ref.refusal(op, wave) is None:
        assert_same_wave(apply_lpdo(op, wave), expected)


def test_waves_have_no_differentiate():
    """The chain-rule step left the package: the oracle only multiplies by gradients."""
    assert not hasattr(ExpWave, "differentiate")
    assert not hasattr(plane_wave(1), "differentiate")


@pytest.fixture
def break_symbol_machinery(monkeypatch):
    """Returns a switch that makes every symbol routine and every decider
    in `checks` raise, in each galinv module that holds a name for it, and
    the coefficient fold of `LPDO(n, coeffs)`, which sums with `lpdo`'s
    name for `product_sum` (the oracle sums with its own)."""

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached the symbol machinery")

    def switch():
        checks = sys.modules["galinv.checks"]
        names = {"symbol_of", "split_trailing"} | {
            name for name, value in vars(checks).items()
            if callable(value) and getattr(value, "__module__", None) == checks.__name__
        }
        patched = set()
        for module_name, module in list(sys.modules.items()):
            if module_name == "galinv" or module_name.startswith("galinv."):
                for name in names & set(vars(module)):
                    monkeypatch.setattr(module, name, broken)
                    patched.add(name)
        assert patched == names
        monkeypatch.setattr(sys.modules["galinv.lpdo"], "product_sum", broken)

    return switch


def test_oracle_needs_no_symbol_machinery(corpus, break_symbol_machinery):
    rng = random.Random(2025)
    ops = list(corpus.values())
    for n in (1, 2, 3):
        ops += [random_constant_lpdo(rng, n, order) for order in (0, 1, 2, 3)]
        ops.append(random_variable_lpdo(rng, n, 2))
    cases = []
    for op in ops:  # expected answers, taken while the symbol route works
        op.coeffs  # an operator built from its symbol reads its coefficients off it here
        v = tuple(Fraction(a + 1, 2) for a in range(op.n))
        if op.is_constant_coefficient:
            report = check_boost_invariance_fixed_gauge(op, 1)
            v = v if report.invariant else report.witness.v
            cases.append((op, v, apply_plane_wave(op), report.invariant))
        else:
            cases.append((op, v, None, None))
    break_symbol_machinery()
    # The switch took: the decider itself now fails.
    with pytest.raises(AssertionError, match="symbol machinery"):
        check_boost_invariance_fixed_gauge(LPDO.laplacian(2), 1)
    with pytest.raises(AssertionError, match="symbol machinery"):
        LPDO.identity(2)
    for op, v, direct, invariant in cases:
        wave = apply_lpdo(op, plane_wave(op.n))
        defect = boost_commutator_defect(op, 1, v, c=Fraction(1, 3))
        boost_commutator_defect(op, 0, v)
        if direct is not None:
            assert wave == direct
            assert defect.is_zero == invariant
