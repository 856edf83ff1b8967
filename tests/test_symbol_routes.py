"""The accept path's symbol-ring routes against the term-map references.

`symbol_of`, `operator_of`, `compose_const`, `synthesize` and
`RadialDecomposition.reconstruction` work on the packed kernel, and
`LPDO.__add__` and `conj_translation` on the held symbol; the routes
they replaced are in `reference_symbols.py`.  Both must give the
same polynomial with the same internals, and the same operator with
the same coefficient keys, in any order, or the same error.

An operator holds its symbol, so `symbol_of` folds nothing and an
operator handed a symbol splits it only when its coefficients are read.
The packed round trip that did both on every call is also a reference,
and no decider may reach the coefficient fold of `LPDO(n, coeffs)` (its
`product_sum`) or `split_trailing`.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MAX_DIMENSION,
    MAX_TOTAL_DEGREE,
    GaussianRational,
    MultiPoly,
    Symbol,
    Translation,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    check_translation_invariance,
    classify_power_form,
    classify_second_order,
    compose_const,
    conj_rotation,
    conj_translation,
    format_operator,
    operator_of,
    parse_operator,
    reflection,
    synthesize,
    symbol_of,
    universe,
)
from galinv.actions import rotation_symbol_bindings
from galinv.checks import RadialDecomposition, radial_decompose
from galinv.multipoly import _build

import reference_symbols as ref
from conftest import assert_same_internals

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


def assert_same_operator(new, old):
    assert (new.n, new.order, repr(new)) == (old.n, old.order, repr(old))
    assert new.coeffs.keys() == old.coeffs.keys()
    for key, poly in new.coeffs.items():
        assert_same_internals(poly, old.coeffs[key], with_repr=True)


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
    assert_same_internals(new.poly, old.poly, with_repr=True)
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


def assert_same_route(new_route, old_route):
    """Equal operators with the same order, coefficient items in order,
    repr and printed form, or the same error text."""
    got, want = outcome(new_route), outcome(old_route)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    new, old = got[1], want[1]
    assert_same_operator(new, old)
    assert format_operator(new) == format_operator(old)
    assert new == old


def assert_same_value(new_route, old_route):
    """Equal operators with the same order, repr and coefficients, or the
    same error text; the coefficient key order may differ."""
    got, want = outcome(new_route), outcome(old_route)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    new, old = got[1], want[1]
    assert (new.n, new.order, repr(new), new.coeffs) == (old.n, old.order, repr(old), old.coeffs)
    assert new == old


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_sum_matches_coefficient_route(n, data):
    first, second = data.draw(operators(n)), data.draw(operators(n))
    # The second sum is the zero operator; in the third the terms of `first` cancel.
    pairs = [(first, second), (first, (-1) * first)]
    if first != second:
        pairs.append((first, ref.add((-1) * first, second)))
    for a, b in pairs:
        assert_same_value(lambda: a + b, lambda: ref.add(a, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_translation_matches_coefficient_route(n, data):
    op = data.draw(operators(n))
    shift = Translation(data.draw(fractions), [data.draw(fractions) for _ in range(n)])
    assert_same_value(lambda: conj_translation(op, shift), lambda: ref.conj_translation(op, shift))


@st.composite
def over_cap_monomials(draw, n):
    """One monomial over the symbol universe of degree above the cap, built
    past `MultiPoly`'s own check; the (t, x) part stays within it."""
    lead = draw(exponents(n + 1, MAX_TOTAL_DEGREE))
    tail = list(draw(exponents(n + 1, 8)))
    tail[draw(st.integers(0, n))] += MAX_TOTAL_DEGREE + 1 - sum(lead) + draw(st.integers(0, 8))
    exps = (*lead, *tail)
    key = int.from_bytes(bytes((*exps, sum(exps))), "little")
    return _build(universe.symbol_vars(n), 1, {key: (1, 0)})


@settings(max_examples=60, deadline=None)
@given(operators(), st.data())
def test_held_symbol_matches_packed_round_trip(op, data):
    n, held = op.n, symbol_of(op)
    folded = ref.packed_symbol_of(op)
    assert (held.n, held.order) == (folded.n, folded.order)
    assert_same_internals(held.poly, folded.poly, with_repr=True)

    def packed(poly, order=op.order):
        return lambda: ref.packed_operator_of(Symbol(poly, n, order))

    assert_same_route(lambda: operator_of(held), packed(folded.poly))
    factor = data.draw(maybe_zero)  # zero gives the zero operator on both routes
    assert_same_route(
        lambda: op.scaled(factor),
        lambda: LPDO(n, {key: poly * factor for key, poly in op.coeffs.items()}),
    )
    assert_same_route(lambda: operator_of(Symbol(MultiPoly.zero(held.poly.variables), n, 0)),
                      packed(MultiPoly.zero(held.poly.variables), 0))
    over = data.draw(over_cap_monomials(n))
    assert_same_route(lambda: operator_of(Symbol(over, n, 0)), packed(over, 0))
    if not op.is_constant_coefficient:
        return
    other = data.draw(st.one_of(
        operators(n, constant=True),
        # at and past the degree cap once composed with op
        st.integers(MAX_TOTAL_DEGREE - op.order, MAX_TOTAL_DEGREE).map(lambda k: LPDO.time_derivative(n, k)),
    ))
    assert_same_route(
        lambda: compose_const(op, other),
        lambda: packed(folded.poly * ref.packed_symbol_of(other).poly)(),
    )
    mirror = reflection(n, data.draw(st.integers(1, n)))
    bindings = rotation_symbol_bindings(mirror, folded.poly.variables)
    assert_same_route(lambda: conj_rotation(op, mirror), packed(folded.poly.substitute(bindings)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_coefficient_fold_matches_embed_sum(n, constant, copied, data):
    """`LPDO(n, coeffs)` sums each coefficient times its monomial
    i^(j+|alpha|) * tau^j * xi^alpha with `product_sum`; the `embed_sum`
    fold it replaced gives the same universe, denominator and terms from
    the same checked coefficients, also over an equal universe that is
    another object."""
    coeffs = data.draw(operators(n, constant=constant, max_order=8)).coeffs
    if copied:
        coeffs = {key: MultiPoly(tuple(list(poly.variables)), poly.terms) for key, poly in coeffs.items()}
    op = LPDO(n, coeffs)
    assert op.coeffs == coeffs
    assert_same_internals(symbol_of(op).poly, ref.folded_symbol(n, coeffs))


def test_symbol_route_refuses_a_dimension_over_the_cap():
    n = MAX_DIMENSION + 1
    symbol = Symbol(MultiPoly.const(universe.symbol_vars(n), 1), n, 0)
    assert_same_route(lambda: operator_of(symbol), lambda: ref.packed_operator_of(symbol))
    assert outcome(operator_of, symbol) == (
        "ValueError", f"spatial dimension {n} exceeds the cap of {MAX_DIMENSION}"
    )


def test_deciders_never_convert_between_symbol_and_coefficients(monkeypatch):
    """With the coefficient fold of `LPDO(n, coeffs)` and `split_trailing`
    broken everywhere, every decider and classifier gives the answers it
    gave before, on a parsed operator that passes the rotation stage and
    one that fails it."""
    cases = [("(2i*Dt+Lap)^2 + Lap", 3), ("Dx1^2 + 2*Dx2^2", 2)]

    def answers(op):
        return [
            check_translation_invariance(op),
            check_rotation_invariance(op),
            check_boost_invariance_fixed_gauge(op, 1),
            classify_power_form(op, 1),
            classify_second_order(op),
        ]

    expected = [answers(parse_operator(text, n)) for text, n in cases]
    ops = [parse_operator(text, n) for text, n in cases]

    def broken(*args, **kwargs):
        raise AssertionError("a decider converted between symbol and coefficients")

    names, patched = {"split_trailing"}, set()
    for module_name, module in list(sys.modules.items()):
        if module_name == "galinv" or module_name.startswith("galinv."):
            for name in names & set(vars(module)):
                monkeypatch.setattr(module, name, broken)
                patched.add(name)
    assert patched == names
    # Only the fold's own name: the parser and the oracle sum with `product_sum` too.
    monkeypatch.setattr(sys.modules["galinv.lpdo"], "product_sum", broken)
    with pytest.raises(AssertionError, match="converted between symbol and coefficients"):
        LPDO.identity(2)
    assert [answers(op) for op in ops] == expected
    assert [v.stage for v in expected[0][3:]] == ["residual-xi-dependence", "not-order-2"]
    assert [v.stage for v in expected[1][3:]] == ["rotation-failure", "rotation-failure"]
