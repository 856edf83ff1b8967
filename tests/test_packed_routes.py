"""The oracle's packed derivative sum and the integer evaluator against their old routes.

`apply_lpdo` steps its chain on variable indices and hands each key's
derivative to `product_sum` packed.  When the amplitude and every
gradient it steps along are free of those coordinates and no product can
pass the degree cap, a step is the product with the gradient alone.
`reference_oracle.apply_lpdo` steps whole waves and adds each product to
a growing total; the two must give identical packed internals and the
same first error on both sides of that test.

`MultiPoly.evaluate` sums every term in one integer pair over the
point's denominators.  `reference_multipoly.evaluate` is the evaluator it
replaced, and the two must agree on every value and on the error for a
missing variable, so that every boost witness and every `reverify`
result stays the same.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MAX_TOTAL_DEGREE,
    ExpWave,
    GaussianRational,
    MultiPoly,
    apply_lpdo,
    boost_commutator_defect,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    parse_operator,
    plane_wave,
    symbol_of,
    universe,
)
from galinv.checks import _boost_witness
from galinv.errors import InconsistencyError

import reference_multipoly
import reference_oracle as ref
from conftest import random_constant_lpdo, random_variable_lpdo

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.one_of(small, st.builds(GaussianRational, small, small))


def internals(p: MultiPoly):
    return p.variables, p._den, list(p._num.items())


def applied(fn, op, wave):
    try:
        out = fn(op, wave)
    except ValueError as exc:
        return "ValueError", str(exc)
    assert out.phase is wave.phase
    return "ok", internals(out.amplitude)


def monomial(names, value=1, **exps):
    return MultiPoly(names, {tuple(exps.get(name, 0) for name in names): value})


def waves(n: int, v, lam, amplitude_term, phase_term):
    """Waves on both sides of the lean test over the symbol universe."""
    names = universe.symbol_vars(n)
    plane = plane_wave(n)
    theta, pullback = ref.boost_setup(n, lam, v)
    pulled = ref.with_phase_added(ref.substitute(plane, pullback), theta)
    tau_xi = monomial(names, tau=1) - monomial(names, xi1=1)
    return {
        "plane": plane,
        "pulled back": pulled,
        # dA is not zero: the amplitude holds t or x1.
        "amplitude t": ExpWave(plane.amplitude + amplitude_term * monomial(names, t=1), plane.phase),
        "amplitude x1": ExpWave(monomial(names, amplitude_term, x1=1, xi1=1) + 1, pulled.phase),
        # A gradient holds a coordinate.
        "phase t^2": ExpWave(plane.amplitude, plane.phase + phase_term * monomial(names, t=2)),
        "phase x1*t": ExpWave(plane.amplitude, pulled.phase + phase_term * monomial(names, t=1, x1=1)),
        "phase t^40": ExpWave(plane.amplitude, monomial(names, t=40) + plane.phase),
        # Free of the coordinates, but two t-steps pass the cap.
        "gradient tau^40": ExpWave(plane.amplitude, monomial(names, t=1, tau=40) + plane.phase),
        # Free of the coordinates, and products of the gradients cancel terms.
        "cancelling": ExpWave(plane.amplitude, monomial(names, t=1) * tau_xi
                              + monomial(names, x1=1) * (monomial(names, tau=1) + monomial(names, xi1=1))),
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.booleans(), st.integers(0, 2**32),
       st.lists(small, min_size=3, max_size=3), st.one_of(st.just(Fraction(0)), small),
       small.filter(bool), small.filter(bool))
@example(1, 3, True, 5, [Fraction(1, 2), 0, 0], Fraction(1), Fraction(1), Fraction(1))
def test_apply_lpdo_matches_the_reference_on_both_sides_of_the_lean_test(
        n, order, constant, seed, velocity, lam, amplitude_term, phase_term):
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    for label, wave in waves(n, velocity[:n], lam, amplitude_term, phase_term).items():
        got = applied(apply_lpdo, op, wave)
        assert got == applied(ref.apply_lpdo, op, wave), label


def test_each_side_of_the_lean_test_is_reached():
    """Fixed operators that take two steps along t and along x1, so that
    every wave above shows its kind of chain."""
    op = parse_operator("Dt^2 + Dx1^2 + Dt*Dx1 + 3", n=1)
    names = universe.symbol_vars(1)
    kinds = {}
    for label, wave in waves(1, [Fraction(1, 2)], Fraction(1), Fraction(1), Fraction(1)).items():
        kinds[label] = applied(apply_lpdo, op, wave)
        assert kinds[label] == applied(ref.apply_lpdo, op, wave), label
    message = f"exceeds the cap of {MAX_TOTAL_DEGREE}"
    assert {label for label, (kind, text) in kinds.items() if kind == "ValueError" and message in text} == {
        "phase t^40", "gradient tau^40"}
    # The cancelling wave's d/dt d/dx1 is i^2 (tau - xi1)(tau + xi1): its xi1*tau term cancels.
    mixed = apply_lpdo(LPDO(1, {(1, (1,)): 1}), waves(1, [0], 0, 1, 1)["cancelling"])
    assert internals(mixed.amplitude) == internals(MultiPoly(names, {(0, 0, 2, 0): -1, (0, 0, 0, 2): 1}))


def test_derivatives_stay_packed_and_constant_coefficients_need_no_pull_back(monkeypatch):
    """One polynomial per apply, the sum; a constant-coefficient defect substitutes nothing."""
    op = parse_operator(" + ".join(f"(2i*Dt+Lap)^{k}" for k in range(5)), n=3)  # 70 keys
    v = [Fraction(1, 2), -1, 2]
    wave, expected = plane_wave(3), ref.boost_commutator_defect(op, 1, v)
    apply_lpdo(op, wave)  # fills the shared wave's cache of i*dphi
    calls = {}
    for name in ("_make", "substitute"):
        raw = vars(MultiPoly)[name]
        inner = raw.__func__ if isinstance(raw, classmethod) else raw

        def counted(*args, name=name, inner=inner, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(MultiPoly, name, classmethod(counted) if isinstance(raw, classmethod) else counted)
    apply_lpdo(op, wave)
    assert calls == {"_make": 1}
    assert internals(boost_commutator_defect(op, 1, v)) == internals(expected)
    assert "substitute" not in calls


@st.composite
def polys_and_points(draw):
    """A polynomial over 1-3 variables or a symbol universe, degree <= 12,
    Gaussian coefficients, and a point with Fraction or Gaussian values
    that may leave a variable out."""
    names = draw(st.sampled_from([("v0",), ("v0", "v1"), ("v0", "v1", "v2")]
                                 + [universe.symbol_vars(n) for n in (1, 2, 3)]))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = [0] * len(names)
        for _ in range(draw(st.integers(0, 12))):
            exps[draw(st.integers(0, len(names) - 1))] += 1
        terms[tuple(exps)] = draw(gaussians)
    values = small if draw(st.booleans()) else gaussians
    point = {name: draw(values) for name in names}
    if draw(st.integers(0, 4)) == 0:
        for name in draw(st.lists(st.sampled_from(names), max_size=2)):
            point.pop(name, None)
    point["unused"] = draw(values)
    return MultiPoly(names, terms), point


def evaluated(fn, poly, point):
    try:
        value = fn(poly, point)
    except ValueError as exc:
        return "ValueError", str(exc)
    assert type(value) is GaussianRational
    return "ok", value._t


@settings(max_examples=300, deadline=None)
@given(polys_and_points())
@example((MultiPoly(("a", "b"), {(1, 0): 1, (0, 2): 1, (2, 1): 1}), {}))  # first term, lowest variable
@example((MultiPoly(("a", "b"), {(0, 3): 1, (1, 0): 1}), {}))  # b first: its term comes first
@example((MultiPoly(("a", "b"), {(12, 0): GaussianRational(1, 2)}), {"a": Fraction(-3, 4)}))
def test_integer_evaluation_matches_the_reference(case):
    poly, point = case
    got = evaluated(MultiPoly.evaluate, poly, point)
    assert got == evaluated(reference_multipoly.evaluate, poly, point)


def test_missing_variable_errors_name_the_first_variable_the_terms_use():
    poly = MultiPoly(("a", "b", "c"), {(0, 0, 2): 1, (1, 1, 0): 1})
    for point, name in (({}, "c"), ({"c": 1}, "a"), ({"c": 1, "a": 1}, "b")):
        with pytest.raises(ValueError, match=f"no value supplied for variable '{name}'"):
            poly.evaluate(point)


def _with_reference_evaluator(monkeypatch, fn):
    with monkeypatch.context() as patch:
        patch.setattr(MultiPoly, "evaluate", reference_multipoly.evaluate)
        return fn()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witnesses_and_reverify_results_are_unchanged(n, monkeypatch):
    rng = random.Random(24 + n)
    for order in (1, 2, 3, 4):
        for _ in range(4):
            op = random_constant_lpdo(rng, n, order)
            for lam in (0, 1, Fraction(-3, 2)):
                report = check_boost_invariance_fixed_gauge(op, lam)
                if report.witness is None:
                    continue
                p = symbol_of(op).poly
                old = _with_reference_evaluator(monkeypatch, lambda: _boost_witness(op, Fraction(lam), p))
                assert report.witness == old
                assert report.witness.reverify(op) is True
                assert _with_reference_evaluator(monkeypatch, lambda: report.witness.reverify(op)) is True
            rotation = check_rotation_invariance(op)
            if rotation.witness is not None:
                assert rotation.witness.reverify(op) is _with_reference_evaluator(
                    monkeypatch, lambda: rotation.witness.reverify(op))


def test_an_exhausted_witness_search_fails_the_same_way(monkeypatch):
    """On an invariant symbol no point differs, so both evaluators try all 500."""
    op = parse_operator("(2i*Dt+Lap)^2", n=2)
    p = symbol_of(op).poly
    for search in (lambda: _boost_witness(op, Fraction(1), p),
                   lambda: _with_reference_evaluator(monkeypatch, lambda: _boost_witness(op, Fraction(1), p))):
        with pytest.raises(InconsistencyError, match="no witnessing point"):
            search()
