"""The oracle's derivative sums and the integer evaluator against their old routes.

`apply_lpdo` takes only lean waves: the amplitude and every gradient it
steps along are free of those coordinates.  It folds each key's steps
along one-term gradients into its coefficient and sums the rest by
Horner's rule over the trie of the remaining steps.  Any other wave is
refused with a `ValueError` that names the condition it fails, and a
product past the degree cap raises the cap error at the largest degree,
which the lean test computes before any product is taken.
`reference_oracle.lean_outcome` states that contract on the references:
on a lean wave within the cap, `apply_lpdo` gives the packed internals of
`reference_oracle.chain_apply_lpdo`, the packed chain that Horner's rule
replaced, which also steps the chain rule on every other wave.  The chain
and `reference_oracle.apply_lpdo`, which steps whole waves and adds each
product to a growing total, must agree on every wave, first error
included.

`MultiPoly.evaluate` sums every term in one integer pair over the
point's denominators.  `reference_multipoly.evaluate` is the evaluator it
replaced, and the two must agree on every value and on the error for a
missing variable, so that every boost witness and every `reverify`
result stays the same.
"""

import random
from fractions import Fraction

import galinv.oracle
import pytest
from hypothesis import example, given, note, settings
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
from conftest import assert_same_internals, internals, random_constant_lpdo, random_variable_lpdo

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.one_of(small, st.builds(GaussianRational, small, small))


def applied(fn, op, wave):
    try:
        out = fn(op, wave)
    except ValueError as exc:
        return "ValueError", str(exc)
    assert out.phase is wave.phase
    return "ok", out.amplitude


def monomial(names, value=1, **exps):
    return MultiPoly(names, {tuple(exps.get(name, 0) for name in names): value})


def waves(n: int, v, lam, amplitude_term, phase_term):
    """Waves on both sides of the lean test over the symbol universe."""
    names = universe.symbol_vars(n)
    plane = plane_wave(n)
    theta, pullback = ref.boost_setup(n, lam, v)
    pulled = ref.with_phase_added(ref.substitute(plane, pullback), theta)
    tau_xi = monomial(names, tau=1) - monomial(names, xi1=1)
    space = sum((monomial(names, **{universe.space(a): 1}) for a in range(2, n + 1)), monomial(names, x1=1))
    return {
        "plane": plane,
        "pulled back": pulled,
        # One-term x-gradients folded, and a t-gradient of n + 1 terms when v is not 0.
        "pulled back at lam 0": ref.substitute(plane, ref.boost_setup(n, 0, v)[1]),
        # A one-term t-gradient folded, and two-term x-gradients i*(xi_a + c*tau).
        "two-term x": ExpWave(plane.amplitude, plane.phase + phase_term * monomial(names, tau=1) * space),
        # dA is not zero: the amplitude holds t or x1.
        "amplitude t": ExpWave(plane.amplitude + amplitude_term * monomial(names, t=1), plane.phase),
        "amplitude x1": ExpWave(monomial(names, amplitude_term, x1=1, xi1=1) + 1, pulled.phase),
        # A gradient holds a coordinate.
        "phase t^2": ExpWave(plane.amplitude, plane.phase + phase_term * monomial(names, t=2)),
        "phase x1*t": ExpWave(plane.amplitude, pulled.phase + phase_term * monomial(names, t=1, x1=1)),
        "phase t^40": ExpWave(plane.amplitude, monomial(names, t=40) + plane.phase),
        # Free of the coordinates, but two t-steps pass the cap.
        "gradient tau^40": ExpWave(plane.amplitude, monomial(names, t=1, tau=40) + plane.phase),
        # Free of the coordinates, with an amplitude that is not 1.
        "amplitude tau*xi1": ExpWave(monomial(names, amplitude_term, tau=1, xi1=1) + Fraction(1, 3), pulled.phase),
        # Free of the coordinates, and products of the gradients cancel terms.
        "cancelling": ExpWave(plane.amplitude, monomial(names, t=1) * tau_xi
                              + monomial(names, x1=1) * (monomial(names, tau=1) + monomial(names, xi1=1))),
    }


WAVE_LABELS = tuple(waves(1, [0], 0, 1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.booleans(), st.integers(0, 2**32),
       st.lists(small, min_size=3, max_size=3), st.one_of(st.just(Fraction(0)), small),
       small.filter(bool), small.filter(bool))
@example(1, 3, True, 5, [Fraction(1, 2), 0, 0], Fraction(1), Fraction(1), Fraction(1))
def test_apply_lpdo_matches_the_reference_on_both_sides_of_the_lean_test(
        n, order, constant, seed, velocity, lam, amplitude_term, phase_term):
    """The packed chain, which steps the chain rule off the lean path, against
    the term-by-term reference on every wave."""
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    for label, wave in waves(n, velocity[:n], lam, amplitude_term, phase_term).items():
        note(label)
        assert_same_internals(applied(ref.chain_apply_lpdo, op, wave), applied(ref.apply_lpdo, op, wave))


def test_each_side_of_the_lean_test_is_reached():
    """Fixed operators that take two steps along t and along x1, so that
    every wave above shows its kind of outcome."""
    op = parse_operator("Dt^2 + Dx1^2 + Dt*Dx1 + 3", n=1)
    names = universe.symbol_vars(1)
    kinds, chains = {}, {}
    for label, wave in waves(1, [Fraction(1, 2)], Fraction(1), Fraction(1), Fraction(1)).items():
        kinds[label], chains[label] = applied(apply_lpdo, op, wave), applied(ref.chain_apply_lpdo, op, wave)
        assert_same_internals(kinds[label], ref.lean_outcome(op, wave))
        assert_same_internals(chains[label], applied(ref.apply_lpdo, op, wave))
    message = f"exceeds the cap of {MAX_TOTAL_DEGREE}"
    assert {label for label, (kind, text) in chains.items() if kind == "ValueError" and message in text} == {
        "phase t^40", "gradient tau^40"}
    assert kinds["gradient tau^40"] == ("ValueError", f"term degree 80 exceeds the cap of {MAX_TOTAL_DEGREE}")
    refused = {label: text for label, (kind, text) in kinds.items() if kind == "ValueError" and message not in text}
    assert refused == {
        "amplitude t": "the amplitude depends on a stepped coordinate",
        "amplitude x1": "the amplitude depends on a stepped coordinate",
        "phase t^2": "the gradient along 't' depends on a stepped coordinate",
        "phase x1*t": "the gradient along 't' depends on a stepped coordinate",
        "phase t^40": "the gradient along 't' depends on a stepped coordinate",
    }
    # The cancelling wave's d/dt d/dx1 is i^2 (tau - xi1)(tau + xi1): its xi1*tau term cancels.
    mixed = apply_lpdo(LPDO(1, {(1, (1,)): 1}), waves(1, [0], 0, 1, 1)["cancelling"])
    assert_same_internals(mixed.amplitude, MultiPoly(names, {(0, 0, 2, 0): -1, (0, 0, 0, 2): 1}))


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
    assert_same_internals(boost_commutator_defect(op, 1, v), expected)
    assert "substitute" not in calls


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.booleans(), st.integers(0, 2**32),
       st.lists(small, min_size=3, max_size=3), st.one_of(st.just(Fraction(0)), small),
       small.filter(bool), small.filter(bool))
@example(3, 8, True, 5, [Fraction(1, 2), -1, 2], Fraction(1), Fraction(3, 2), Fraction(1))
def test_apply_lpdo_is_the_packed_chain_on_lean_waves_and_refuses_the_rest(
        n, order, constant, seed, velocity, lam, amplitude_term, phase_term):
    """On each lean wave within the cap `apply_lpdo` gives the chain's
    internals; every other wave raises the named refusal or the cap error at
    the computed degree.  On a lean wave it raises exactly when the chain
    does, since degrees add exactly under products."""
    make = random_constant_lpdo if constant or order == 0 else random_variable_lpdo
    op = make(random.Random(seed), n, order)
    for label, wave in waves(n, velocity[:n], lam, amplitude_term, phase_term).items():
        note(label)
        got = applied(apply_lpdo, op, wave)
        assert_same_internals(got, ref.lean_outcome(op, wave))
        if ref.refusal(op, wave) is None:
            assert got[0] == applied(ref.chain_apply_lpdo, op, wave)[0]


@pytest.mark.parametrize("label", WAVE_LABELS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("text", ["t*(2i*Dt + Lap)", "(2i*Dt+Lap)^4", "x1*Dt^3 + (2i*Dt+Lap)^2 - 1/3",
                                  "(t + x1)*Lap^3 + 2*Dt + 5", "7/2"])
def test_constant_and_variable_coefficients_match_the_packed_chain(text, n, label):
    op = parse_operator(text, n=n)
    wave = waves(n, [Fraction(1, 2), -1, 2][:n], Fraction(1), Fraction(3, 2), Fraction(1))[label]
    assert_same_internals(applied(apply_lpdo, op, wave), ref.lean_outcome(op, wave))


def _cap_cases():
    """Lean waves whose t-gradient has degree 30, and Dt^2 with a coefficient
    of degree 5 to 8 in x1 and t, its terms in either order: the
    coefficient times the derivative passes the cap."""
    names, coeff_names = universe.symbol_vars(1), universe.coeff_vars(1)
    phases = [monomial(names, t=1, tau=30) + monomial(names, t=1, tau=2, xi1=1),
              monomial(names, t=1, tau=2, xi1=1) + monomial(names, t=1, tau=30) + monomial(names, x1=1, xi1=1)]
    for phase in phases:
        for space, time in ((5, 8), (6, 7)):
            for first, second in (((0, space), (time, 0)), ((time, 0), (0, space))):
                coeff = MultiPoly(coeff_names, {first: 1, second: 1})
                for extra in ({}, {(0, (2,)): 1}, {(1, (1,)): coeff}):
                    yield LPDO(1, {(2, (0,)): coeff, **extra}), ExpWave(plane_wave(1).amplitude, phase)


@pytest.mark.parametrize("case", list(_cap_cases()))
def test_a_coefficient_past_the_cap_fails_as_the_packed_chain_does(case):
    """`LPDO` caps coefficient degree plus order, so only a direct call on a
    lean wave reaches this.  The chain names the degree of its first
    product past the cap; `apply_lpdo` names the largest degree, 60 plus
    the coefficient's."""
    op, wave = case
    got = applied(apply_lpdo, op, wave)
    assert_same_internals(got, ref.lean_outcome(op, wave))
    degree = 60 + op.coeffs[(2, (0,))].total_degree()
    assert got == ("ValueError", f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}")
    kind, message = applied(ref.chain_apply_lpdo, op, wave)
    assert kind == "ValueError" and message in {
        f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}" for degree in (65, 66, 67, 68)}


def test_horner_is_taken_exactly_when_no_product_can_pass_the_cap(monkeypatch):
    """The oracle sums through `_horner` alone, and a coefficient past the cap
    on a lean wave raises before any product is taken."""
    assert not hasattr(galinv.oracle, "product_sum")
    inner, calls = galinv.oracle._horner, []
    monkeypatch.setattr(galinv.oracle, "_horner", lambda *args: calls.append(args) or inner(*args))
    lean = waves(3, [Fraction(1, 2), -1, 2], Fraction(1), Fraction(3, 2), Fraction(1))
    for text in ("t*(2i*Dt + Lap) + 3", "(2i*Dt+Lap)^8"):
        for label in ("plane", "pulled back", "amplitude tau*xi1", "cancelling"):
            apply_lpdo(parse_operator(text, n=3), lean[label])
    assert len(calls) == 8
    op, wave = next(_cap_cases())
    with pytest.raises(ValueError, match="exceeds the cap"):
        apply_lpdo(op, wave)
    assert len(calls) == 8


def test_the_cap_admits_degree_64_and_refuses_65():
    """An order-64 symbol on the plane wave is exactly at the cap; an
    amplitude of degree 1 takes every product one past it."""
    op = parse_operator("(2i*Dt+Lap)^32", n=1)
    names, wave = universe.symbol_vars(1), plane_wave(1)
    got = applied(apply_lpdo, op, wave)
    assert got[0] == "ok" and got[1].total_degree() == MAX_TOTAL_DEGREE
    assert_same_internals(got, ref.lean_outcome(op, wave))
    assert boost_commutator_defect(op, 1, [Fraction(2, 3)]).is_zero
    lifted = ExpWave(monomial(names, tau=1), wave.phase)
    assert applied(apply_lpdo, op, lifted) == ("ValueError", f"term degree 65 exceeds the cap of {MAX_TOTAL_DEGREE}")
    assert applied(ref.chain_apply_lpdo, op, lifted)[0] == "ValueError"


@pytest.mark.parametrize("text, amplitude, phase", [
    # The gradient along x2 is 0, so t^10*Dx2 makes no product with tau^60.
    ("t^10*Dx2 + Dt", {"tau": 60}, {"t": 1, "tau": 1}),
    # A zero amplitude makes no product, though Dt^2 weighs 80 on this phase.
    ("Dt^2 + t*Dx1", None, {"t": 1, "tau": 40}),
])
def test_a_zero_factor_makes_no_product_past_the_cap(text, amplitude, phase):
    """Degrees add exactly under products, and a zero factor makes none, so
    a lean wave raises the cap error exactly when the packed chain does."""
    names = universe.symbol_vars(2)
    op = parse_operator(text, n=2)
    a = MultiPoly.zero(names) if amplitude is None else monomial(names, **amplitude)
    wave = ExpWave(a, monomial(names, **phase) + monomial(names, x1=1, xi1=1))
    expected = applied(ref.chain_apply_lpdo, op, wave)
    assert expected[0] == "ok"
    assert_same_internals(applied(apply_lpdo, op, wave), expected)
    assert_same_internals(ref.lean_outcome(op, wave), expected)


def test_horner_adds_into_no_held_polynomial():
    """Constant coefficients are read as they are held, and a node with both
    a coefficient and children sums into a dict of its own."""
    op = parse_operator("3 + Dt + 2*Dt^2 + Dt*Dx1 + (1/2)*Dx1 + x1*Dx1^2", n=1)
    for wave in waves(1, [Fraction(1, 2)], Fraction(1), Fraction(3, 2), Fraction(1)).values():
        held = [op.coeffs[key] for key in sorted(op.coeffs)] + [wave.amplitude, wave.phase]
        held += [wave._i_dphi(name) for name in ("t", "x1")]
        before = [(internals(p), list(p._num)) for p in held]
        first = applied(apply_lpdo, op, wave)
        assert_same_internals(applied(apply_lpdo, op, wave), first)
        assert [(internals(p), list(p._num)) for p in held] == before


def test_horner_multiplies_no_gradient_into_a_parent_on_the_plane_wave(monkeypatch):
    """Every gradient of the plane wave is one term, so each key's steps scale
    and shift its coefficient and no trie is walked; pulled back at lam = 0
    only the t-gradient has more than one term, so only its chain is walked."""
    products = []
    inner = galinv.oracle._add_product

    def counted(*args):
        products.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(galinv.oracle, "_add_product", counted)
    ops = [parse_operator(text, n=3) for text in
           ("3 + Dt + 2*Dt^2 + Dt*Dx1 + (1/2)*Dx1 + x1*Dx1^2", "(2i*Dt+Lap)^4", "t*(2i*Dt + Lap) + Dx1*Dx2*Dx3")]
    lean = waves(3, [Fraction(1, 2), -1, 2], Fraction(1), Fraction(3, 2), Fraction(1))
    for label, walked in (("plane", set()), ("pulled back at lam 0", {"t"}), ("pulled back", {"t", "x1", "x2", "x3"})):
        wave = lean[label]
        gradients = {id(wave._i_dphi(name)._num): name for name in ("t", "x1", "x2", "x3")}
        for op in ops:
            products.clear()
            got = applied(apply_lpdo, op, wave)
            assert_same_internals(got, applied(ref.chain_apply_lpdo, op, wave))
            assert {gradients[id(right)] for right in products if id(right) in gradients} <= walked
        assert walked <= {gradients[id(right)] for right in products if id(right) in gradients}


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
@example((MultiPoly(("a", "b"), {(0, 3): 1, (1, 0): 1}), {}))  # b's term first, a still named
@example((MultiPoly(("a", "b"), {(12, 0): GaussianRational(1, 2)}), {"a": Fraction(-3, 4)}))
def test_integer_evaluation_matches_the_reference(case):
    poly, point = case
    got = evaluated(MultiPoly.evaluate, poly, point)
    assert got == evaluated(reference_multipoly.evaluate, poly, point)


def test_missing_variable_errors_name_the_first_missing_variable_in_universe_order():
    """c^2 + a*b, built in both term orders, names the same variable."""
    for terms in ({(0, 0, 2): 1, (1, 1, 0): 1}, {(1, 1, 0): 1, (0, 0, 2): 1}):
        poly = MultiPoly(("a", "b", "c"), terms)
        for point, name in (({}, "a"), ({"a": 1}, "b"), ({"c": 1}, "a"), ({"a": 1, "b": 1}, "c")):
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
