"""The three routes that compute on integer triples, not on `GaussianRational`
field arithmetic, against the Fraction-pair reference kernel.

- `MultiPoly.__pow__` on a constant squares its numerator pair in integers
  over den**k;
- `RadialDecomposition.reconstruction` turns each b_jk by i**j with `_turn`;
- `normalize_gauge` computes gamma = -beta/(2*alpha*lam) with one `_normal`,
  its denominator kept positive when lam < 0.

Each must give the value that `reference_gaussrat` computes, as the same
canonical triple.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    RadialDecomposition,
    classify_second_order,
    linear_phase,
    normalize_gauge,
    parse_operator,
    synthesize,
    universe,
)

import reference_gaussrat as rg
import reference_symbols

parts = st.fractions(min_value=-5, max_value=5, max_denominator=6)
values = st.builds(GaussianRational, parts, parts)
V = universe.symbol_vars(1)


def assert_canonical(value: GaussianRational, expected: GaussianRational) -> None:
    """The same value as the same normalised triple."""
    assert type(value) is GaussianRational and value == expected and value._t == expected._t


@settings(max_examples=80, deadline=None)
@given(st.one_of(values, parts, st.integers(-3, 3)), st.integers(0, 64))
@example(GaussianRational(), 0)
@example(GaussianRational(), 7)
@example(GaussianRational(1, 1), 64)
@example(Fraction(-2, 3), 63)
@example(GaussianRational(0, Fraction(1, 2)), 5)
def test_a_constant_power_matches_the_reference(z, k):
    power = MultiPoly.const(V, z) ** k
    expected = rg.held(rg.as_gaussian(z) ** k)
    assert power.is_constant and power.variables == V
    assert_canonical(power.constant_value(), expected)
    assert power == MultiPoly.const(V, expected)  # the same (den, num)
    if not k:
        assert power == 1  # 0 ** 0 too


def test_the_parser_and_substitute_take_constant_powers_on_triples():
    assert parse_operator("i^3 + (1+i)^4 + (1/2)^0", 1) == parse_operator("-i - 4 + 1", 1)
    t, x1 = (MultiPoly.var(V, name) for name in ("t", "x1"))
    image = (t**3 * x1).substitute({"t": GaussianRational(1, -1), "x1": Fraction(-1, 2)})
    assert_canonical(image.constant_value(), rg.held(rg.GaussianRational(1, -1) ** 3 * Fraction(-1, 2)))
    assert (t**0).substitute({"t": 0}) == 1


@st.composite
def decompositions(draw):
    """b_jk with one entry at each quarter-turn j mod 4, and a few more;
    values of every kind the constructor takes, zeros included."""
    n = draw(st.integers(1, 3))
    anything = st.one_of(values, parts, st.integers(-3, 3))
    b = {(j + 4 * draw(st.integers(0, 1)), draw(st.integers(0, 2))): draw(values.filter(bool)) for j in range(4)}
    b.update(draw(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 2)), anything, max_size=3)))
    return RadialDecomposition(n, 0, b)


@settings(max_examples=60, deadline=None)
@given(decompositions())
def test_reconstruction_turns_every_quarter_like_the_reference(radial):
    assert {j % 4 for j, _ in radial.b} == {0, 1, 2, 3}
    poly = radial.reconstruction()
    assert poly == reference_symbols.reconstruction(radial)
    width = len(poly.variables)
    for (j, k), c in radial.b.items():
        # Only b_jk reaches tau^j xi1^(2k): it is b_jk * i**j there.
        exps = [0] * width
        exps[radial.n + 1], exps[radial.n + 2] = j, 2 * k
        assert_canonical(poly.coefficient(exps), rg.held(rg.i_power(j) * c))


nonzero = values.filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.fractions(-3, 3, max_denominator=4).filter(bool), nonzero, values)
@example(1, Fraction(-1, 2), GaussianRational(2, 1), GaussianRational(5))
@example(2, Fraction(-3), GaussianRational(0, -1), GaussianRational(1, 1))
@example(1, Fraction(-1, 4), GaussianRational(Fraction(-3, 2), 2), GaussianRational(0, Fraction(1, 3)))
def test_normalize_gauge_matches_the_reference(n, lam, alpha, beta):
    op = synthesize(lam, [beta, alpha], n)
    verdict = classify_second_order(op)
    assert verdict.accepted and (verdict.lam, verdict.alpha, verdict.beta) == (lam, alpha, beta)
    result = normalize_gauge(verdict, op)
    gamma = rg.held(-beta / (2 * rg.as_gaussian(alpha) * lam))
    assert result.phase == linear_phase(n, time_coeff=gamma)
    exps = (1,) + (0,) * n
    assert_canonical(result.phase.coefficient(exps), gamma)
    assert result.phase._den > 0
    assert result.real_phase is gamma.is_real
    assert result.operator == LPDO.schrodinger_factor(n, lam).scaled(alpha)
