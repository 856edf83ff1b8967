"""The accept path's symbol-ring routes against the term-map references.

`symbol_of`, `operator_of`, `compose_const`, `synthesize` and
`RadialDecomposition.reconstruction` work on the packed kernel; the
routes they replaced are in `reference_symbols.py`.  Both must give the
same polynomial with the same internals and term order, and the same
operator with the same key order, or the same error.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    Symbol,
    classify_power_form,
    compose_const,
    operator_of,
    synthesize,
    symbol_of,
    universe,
)
from galinv.checks import RadialDecomposition, radial_decompose

import reference_symbols as ref

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)
maybe_zero = st.one_of(st.just(GaussianRational()), gaussians)
LAMS = (0, 1, -1, Fraction(1, 2), 2)


@st.composite
def exponents(draw, width, max_degree):
    exps = [0] * width
    for _ in range(draw(st.integers(0, max_degree))):
        exps[draw(st.integers(0, width - 1))] += 1
    return tuple(exps)


@st.composite
def polys(draw, variables, max_terms=3, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(exponents(len(variables), max_degree))] = draw(gaussians)
    return MultiPoly(variables, terms)


@st.composite
def operators(draw, n=None, constant=None, max_order=4):
    """An LPDO at n = 1..4, with constant or polynomial coefficients."""
    n = draw(st.integers(1, 4)) if n is None else n
    constant = draw(st.booleans()) if constant is None else constant
    names = universe.coeff_vars(n)
    coeffs = {}
    for _ in range(draw(st.integers(1, 5))):
        j = draw(st.integers(0, max_order))
        key = (j, draw(exponents(n, max_order - j)))
        coeffs[key] = MultiPoly.const(names, draw(gaussians)) if constant else draw(polys(names))
    assume(any(not poly.is_zero for poly in coeffs.values()))
    return LPDO(n, coeffs)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def assert_same_poly(new, old):
    assert repr(new) == repr(old)
    assert (new._den, list(new._num.items())) == (old._den, list(old._num.items()))


def assert_same_operator(new, old):
    assert (new.n, new.order, repr(new)) == (old.n, old.order, repr(old))
    assert list(new.coeffs) == list(old.coeffs)
    for key, poly in new.coeffs.items():
        assert_same_poly(poly, old.coeffs[key])


def assert_same_outcome(fn, ref_fn, *args):
    got, want = outcome(fn, *args), outcome(ref_fn, *args)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert_same_operator(got[1], want[1])
    else:
        assert got == want


@settings(max_examples=50, deadline=None)
@given(operators())
def test_symbol_of_and_operator_of_match_term_route(op):
    new, old = symbol_of(op), ref.symbol_of(op)
    assert (new.n, new.order) == (old.n, old.order)
    assert_same_poly(new.poly, old.poly)
    back = operator_of(new)
    assert_same_operator(back, ref.operator_of(old))
    assert back == op


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_operator_of_matches_term_route_on_any_symbol(n, data):
    """Symbols not built by `symbol_of`: tau/xi terms mixed with t/x terms
    in any order, high frequency degrees, and the zero symbol."""
    names = universe.symbol_vars(n)
    for poly in (data.draw(polys(names, 6, 8)), MultiPoly.zero(names)):
        symbol = Symbol(poly, n, poly.degree_in(*names[n + 1 :]))
        assert_same_outcome(operator_of, ref.operator_of, symbol)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_compose_const_matches_table_route(n, data):
    first = data.draw(operators(n, constant=True))
    second = data.draw(operators(n, constant=data.draw(st.booleans())))
    assert_same_outcome(compose_const, ref.compose_const, first, second)
    assert_same_outcome(compose_const, ref.compose_const, first, LPDO.identity(n + 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAMS), st.lists(maybe_zero, min_size=0, max_size=5), st.integers(1, 4))
@example(Fraction(1, 2), [1, GaussianRational(0, 2), Fraction(3, 4)], 3)
@example(-1, [0, 0, 0, 0, 1], 4)
def test_synthesize_matches_table_route(lam, coeffs, n):
    assert_same_outcome(synthesize, ref.synthesize, lam, coeffs, n)
    if lam and coeffs and coeffs[-1]:
        # The power-form accept reads the coefficients back, and they resynthesize.
        op = synthesize(lam, coeffs, n)
        verdict = classify_power_form(op, lam)
        assert verdict.accepted and list(verdict.coeffs) == coeffs
        assert verdict.reverify(op)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), maybe_zero, max_size=6),
)
@example(2, {(0, 0): 3, (0, 1): GaussianRational(0, 1), (1, 1): Fraction(1, 2), (2, 2): -1})
def test_reconstruction_matches_reference_formula(n, b):
    radial = RadialDecomposition(n, 0, dict(b))
    new, old = radial.reconstruction(), ref.reconstruction(radial)
    assert new == old and new._den == old._den
    nonzero = {key: c for key, c in b.items() if c}
    if nonzero:
        # The symbol the decomposition describes decomposes back into it.
        op = operator_of(Symbol(new, n, new.total_degree()))
        decomposed = radial_decompose(op)
        assert decomposed.b == nonzero and decomposed.reverify(op)
