"""The packed-monomial kernel against the tuple-keyed reference kernel.

Every polynomial is built twice, once in each kernel, from the same term
map.  Each operation and accessor must then give the same repr (which
fixes the universe and every coefficient, listed graded-lex), the same
str and `.terms`, and the same error type and message.  The order in
which `.terms` lists the terms is not compared: it is not specified.
The package's results must also be canonical: a positive denominator, a
content of 1, no zero numerators, and exactly the internals that
building the reference's result from scratch gives, so equal values
hold identical internals.
"""

import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import MAX_TOTAL_DEGREE, GaussianRational, MultiPoly, parse_operator, symbol_of, universe
from galinv.multipoly import _add_product, product_sum

import reference_multipoly as ref
import reference_oracle
from conftest import assert_same_internals

UNIVERSES = [tuple(f"v{i}" for i in range(w)) for w in range(1, 9)]
UNIVERSES.append(universe.symbol_vars(10))  # 22 variables
assert len(UNIVERSES[-1]) == 22

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
scalars = st.one_of(
    st.integers(-6, 6),
    fractions,
    st.builds(GaussianRational, fractions, fractions),
)
# High single-variable powers, so products reach (and pass) the cap.
SPIKES = (16, 31, 32, 33, 63, 64)


@st.composite
def term_maps(draw, variables, max_terms=4, max_degree=4, spikes=True):
    width = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * width
        if spikes and draw(st.integers(0, 5)) == 0:
            exps[draw(st.integers(0, width - 1))] = draw(st.sampled_from(SPIKES))
        else:
            for _ in range(draw(st.integers(0, max_degree))):
                exps[draw(st.integers(0, width - 1))] += 1
        terms[tuple(exps)] = draw(scalars)
    return terms


def build(variables, terms):
    return MultiPoly(variables, terms), ref.MultiPoly(variables, terms)


@st.composite
def polys(draw, variables=None, **kwargs):
    """(polynomial, reference polynomial) over a drawn or given universe."""
    if variables is None:
        variables = draw(st.sampled_from(UNIVERSES))
    return build(variables, draw(term_maps(variables, **kwargs)))


@st.composite
def poly_pairs(draw, count=2, **kwargs):
    variables = draw(st.sampled_from(UNIVERSES))
    return [draw(polys(variables, **kwargs)) for _ in range(count)]


def assert_canonical(p) -> None:
    assert type(p._den) is int and p._den > 0
    assert (0, 0) not in p._num.values()
    if not p._num:
        assert p._den == 1
    assert math.gcd(p._den, *(x for pair in p._num.values() for x in pair)) == 1


def assert_same(value, reference) -> None:
    """Equal as values, in presentation, and in canonical internals."""
    assert isinstance(value, MultiPoly) and isinstance(reference, ref.MultiPoly)
    assert repr(value) == repr(reference)
    assert str(value) == str(reference)
    assert value.variables == reference.variables
    assert value.terms == reference.terms
    assert list(value.ordered_terms()) == list(reference.ordered_terms())
    assert value.is_zero == reference.is_zero
    assert value.is_constant == reference.is_constant
    assert value.is_real == all(c.is_real for c in reference.terms.values())
    assert value.total_degree() == reference.total_degree()
    for name in value.variables:
        assert value.degree_in(name) == reference.degree_in(name)
    assert_canonical(value)
    rebuilt = MultiPoly(reference.variables, reference.terms)
    assert rebuilt._den == value._den
    assert rebuilt._num == value._num


def describe(value):
    """A kernel-neutral description of a result, for comparing outcomes."""
    if isinstance(value, (MultiPoly, ref.MultiPoly)):
        return ("poly", repr(value))
    if isinstance(value, dict):
        return {key: describe(part) for key, part in value.items()}
    return ("value", repr(value))


def outcome(fn, *args):
    try:
        return "ok", describe(fn(*args))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def method(name):
    return lambda obj, *args: getattr(obj, name)(*args)


def assert_same_outcome(fn, new_args, ref_args):
    """Same result or same error; package results must also be canonical."""
    got = outcome(fn, *new_args)
    assert got == outcome(fn, *ref_args)
    if got[0] == "ok":
        value = fn(*new_args)
        parts = value.values() if isinstance(value, dict) else [value]
        for part in parts:
            if isinstance(part, MultiPoly):
                assert_canonical(part)
    return got


@settings(max_examples=60, deadline=None)
@given(polys())
def test_accessors_match_reference(pair):
    p, r = pair
    assert_same(p, r)
    for exps in list(r.terms) + [(0,) * len(r.variables), (1,) * len(r.variables), (0,)]:
        assert repr(p.coefficient(exps)) == repr(r.coefficient(exps))
    assert outcome(p.constant_value) == outcome(r.constant_value)
    assert outcome(p.degree_in, "missing") == outcome(r.degree_in, "missing")


@settings(max_examples=40, deadline=None)
@given(poly_pairs(), scalars)
def test_arithmetic_matches_reference(pairs, scalar):
    (p, r), (q, rq) = pairs
    for op in (operator.add, operator.sub, operator.mul):
        assert_same_outcome(op, (p, q), (r, rq))
        assert_same_outcome(op, (p, scalar), (r, scalar))
        assert_same_outcome(op, (scalar, p), (scalar, r))
    assert_same(-p, -r)
    assert (p == q) == (r == rq)
    assert (p == scalar) == (r == scalar)
    assert (p == p + 0) and (r == r + 0)


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_degree=3), st.integers(0, 5))
@example(build(("v0", "v1"), {(32, 0): 1, (0, 1): Fraction(1, 2)}), 2)  # v0^64 at the cap
@example(build(("v0",), {(31,): 1, (0,): 1}), 5)  # squaring met degree 124 first
@example(build(("v0",), {(33,): 1}), 3)  # squaring met degree 66 first
def test_powers_match_reference(pair, k):
    p, r = pair
    degree = k * r.total_degree()
    if degree <= MAX_TOTAL_DEGREE:
        assert_same_outcome(operator.pow, (p, k), (r, k))
        return
    # Over the cap both raise; the package names the power's own degree,
    # before any product, where squaring names the first square or
    # product past the cap.
    got, want = outcome(operator.pow, p, k), outcome(operator.pow, r, k)
    assert want[0] == "ValueError" and want[1].endswith(f"exceeds the cap of {MAX_TOTAL_DEGREE}")
    assert got == ("ValueError", f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(UNIVERSES), st.data())
def test_products_over_the_cap_fail_like_reference(variables, data):
    """Both factors hold a term of degree 33, so their product has a
    nonzero part of degree 66 or more; both kernels must name its
    largest degree."""
    factors = []
    for _ in range(2):
        terms = data.draw(term_maps(variables))
        top = [0] * len(variables)
        top[data.draw(st.integers(0, len(variables) - 1))] = MAX_TOTAL_DEGREE // 2 + 1
        terms[tuple(top)] = data.draw(scalars.filter(bool))
        factors.append(build(variables, terms))
    (p, r), (q, rq) = factors
    got = assert_same_outcome(operator.mul, (p, q), (r, rq))
    assert got[0] == "ValueError" and "exceeds the cap" in got[1]


@settings(max_examples=40, deadline=None)
@given(polys(), st.data())
def test_calculus_and_structure_match_reference(pair, data):
    p, r = pair
    names = p.variables
    name = data.draw(st.sampled_from(names))
    assert_same(p.partial(name), r.partial(name))
    assert_same_outcome(method("partial"), (p, "missing"), (r, "missing"))
    extra = data.draw(st.lists(st.sampled_from(("w0", "w1", "w2")), unique=True))
    target = tuple(data.draw(st.permutations(names + tuple(extra))))
    assert_same(p.extend(target), r.extend(target))
    assert_same_outcome(method("extend"), (p, target[1:]), (r, target[1:]))


@st.composite
def substitute_cases(draw, max_terms=3, max_degree=3):
    """A polynomial in both kernels and bindings of some of its variables, to
    scalars (0 among them) or to images of degree up to 2 over the same
    universe, a wider one, or a foreign one that may lack unbound variables."""
    p, r = draw(polys(max_terms=max_terms, max_degree=max_degree))
    names = p.variables
    kind = draw(st.sampled_from(("same", "wider", "foreign")))
    if kind == "same":
        target = names
    elif kind == "wider":
        target = names + ("w0", "w1")
    else:
        target = ("w0", "w1", "w2")
    bound = draw(st.lists(st.sampled_from(names), unique=True))
    if kind == "foreign":
        bound = list(names) if draw(st.booleans()) else bound
    new, old = {}, {}
    for name in bound:
        if draw(st.booleans()):
            value = draw(scalars)
            new[name] = old[name] = value
        else:
            new[name], old[name] = draw(polys(target, max_terms=2, max_degree=2))
    return (p, new), (r, old)


def substitution_model(r, old):
    """`substitute`'s outcome from its rules, over the reference kernel.
    Mixed universes and unknown names raise as the reference does.  Then the
    first variable in universe order that a term uses, that no binding names
    and that the target lacks is named.  Then the cap is checked on the
    largest image degree, over the terms that use no variable bound to 0: a
    term's image has degree sum(e_i * deg(image_i)) over its bound variables
    plus its unbound degree.  Else the value is the reference's, on the
    terms kept."""
    images = [value for value in old.values() if isinstance(value, ref.MultiPoly)]
    target = images[0].variables if images else r.variables
    if any(image.variables != target for image in images) or not set(old) <= set(r.variables):
        return outcome(method("substitute"), r, old)
    for i, name in enumerate(r.variables):
        if name not in old and name not in target and any(exps[i] for exps in r.terms):
            return "ValueError", f"variable {name!r} is not in universe {target}"
    degree = {name: value.total_degree() if isinstance(value, ref.MultiPoly) else 0 for name, value in old.items()}
    kept = {exps: coeff for exps, coeff in r.terms.items()
            if not any(e and name in old and old[name] == 0 for name, e in zip(r.variables, exps))}
    top = max((sum(e * degree.get(name, 1) for name, e in zip(r.variables, exps)) for exps in kept), default=0)
    if top > MAX_TOTAL_DEGREE:
        return "ValueError", f"term degree {top} exceeds the cap of {MAX_TOTAL_DEGREE}"
    return outcome(method("substitute"), ref.MultiPoly(r.variables, kept), old)


@settings(max_examples=30, deadline=None)
@given(substitute_cases())
def test_substitute_matches_reference(case):
    """The reference's value, or the error the rules name; past the cap the
    reference raises at its first failing product instead, in term order."""
    (p, new), (r, old) = case
    got = outcome(method("substitute"), p, new)
    assert got == substitution_model(r, old)
    if got[0] == "ok":
        assert_canonical(p.substitute(new))


@settings(max_examples=60, deadline=None)
@given(substitute_cases(max_terms=5, max_degree=4))
def test_grouped_substitute_matches_the_per_term_route(case):
    """Wherever the per-term route returns, the grouped route gives the same
    value and the same packed internals."""
    (p, new), _ = case
    want = outcome(ref.per_term_substitute, p, new)
    if want[0] == "ok":
        assert outcome(method("substitute"), p, new) == want
        assert_same_internals(p.substitute(new), ref.per_term_substitute(p, new))


@settings(max_examples=30, deadline=None)
@given(polys(), st.data())
def test_evaluate_matches_reference(pair, data):
    p, r = pair
    point = {name: data.draw(scalars) for name in p.variables}
    if data.draw(st.booleans()):
        del point[data.draw(st.sampled_from(p.variables))]
    got = outcome(p.evaluate, point)
    assert got == outcome(r.evaluate, point)
    if got[0] == "ok":
        value, expected = p.evaluate(point), r.evaluate(point)
        assert value._t == expected._t


@settings(max_examples=20, deadline=None)
@given(poly_pairs(3, spikes=False), st.builds(GaussianRational, fractions, fractions).filter(bool))
def test_equal_values_hold_identical_internals(pairs, unit):
    (p, _), (q, _), (s, _) = pairs
    for left, right in (
        (p * q, q * p),
        ((p + q) - q, p),
        (p * unit * (1 / unit), p),
        ((p + q) * s, p * s + q * s),
        (-(-p), p),
        (p - p, MultiPoly.zero(p.variables)),
    ):
        assert left == right
        assert (left._den, left._num) == (right._den, right._num)
        assert_canonical(left)


CONSTRUCTIONS = [
    ("var", (("a", "b"), "b")),
    ("var", (("a", "b"), "c")),
    ("var", (("a", "a"), "a")),
    ("var", ((), "a")),
    ("const", (("a", "b"), Fraction(-3, 4))),
    ("const", (("a", "b"), GaussianRational(0, Fraction(1, 2)))),
    ("const", (("a",), 0)),
    ("const", (("a", "a"), 1)),
    ("const", ((), 1)),
    ("const", (("a",), 1.5)),
    ("zero", (("a", "b"),)),
    ("zero", ((),)),
]


def test_constructors_match_reference():
    for name, args in CONSTRUCTIONS:
        got = assert_same_outcome(
            lambda cls, *a: getattr(cls, name)(*a), (MultiPoly, *args), (ref.MultiPoly, *args)
        )
        if got[0] == "ok":
            assert_same(getattr(MultiPoly, name)(*args), getattr(ref.MultiPoly, name)(*args))
    for terms in ({(1, -1): 1}, {(1,): 1}, {(40, 25): 0}, {(1, 2): "x"}):
        assert outcome(MultiPoly, ("a", "b"), terms) == outcome(ref.MultiPoly, ("a", "b"), terms)


def test_zero_has_unit_denominator():
    p = MultiPoly(("x",), {(1,): Fraction(1, 3)})
    zero = p - p
    assert zero.is_zero and zero._den == 1 and zero._num == {}
    assert repr(zero) == repr(ref.MultiPoly(("x",), {})) == "MultiPoly(('x',), {})"


@settings(max_examples=40, deadline=None)
@given(polys(), st.data())
def test_coefficient_of_vectors_naming_no_monomial_matches_reference(pair, data):
    """Negative, over-cap (also past one byte) and wrong-length vectors
    name no monomial: zero."""
    p, r = pair
    width = len(p.variables)
    base = list(data.draw(st.sampled_from(list(r.terms) or [(0,) * width])))
    i = data.draw(st.integers(0, width - 1))
    vectors = [base[:-1], base + [0], [MAX_TOTAL_DEGREE + 1] + [0] * (width - 1)]
    for value in (-1, MAX_TOTAL_DEGREE, MAX_TOTAL_DEGREE + 1, 256):
        vectors.append(base[:i] + [value] + base[i + 1 :])
    if width > 1:  # a negative entry offset by one over the cap sums to the cap
        vectors.append([MAX_TOTAL_DEGREE + 1, -1] + [0] * (width - 2))
    for exps in vectors:
        assert repr(p.coefficient(exps)) == repr(r.coefficient(exps))


@settings(max_examples=40, deadline=None)
@given(polys(), st.data())
def test_degree_in_several_variables_matches_reference_terms(pair, data):
    p, r = pair
    names = data.draw(st.lists(st.sampled_from(p.variables), unique=True))
    at = [r.variables.index(name) for name in names]
    assert p.degree_in(*names) == max((sum(e[i] for i in at) for e in r.terms), default=0)


def _substitute_case(variables, terms, bindings):
    """A polynomial and bindings built in both kernels; scalars stay scalars."""
    new, old = {}, {}
    for name, value in bindings.items():
        if isinstance(value, tuple):
            new[name], old[name] = build(*value)
        else:
            new[name] = old[name] = value
    p, r = build(variables, terms)
    return (p, new), (r, old)


W0 = (("w0",), {(1,): 2, (0,): Fraction(1, 3)})  # 2*w0 + 1/3 over ('w0',)
SUBSTITUTE_CASES = [
    # An unbound variable that no term uses may be missing from the target.
    (("a", "b"), {(1, 0): 1}, {"a": W0}),
    (("a", "b", "c"), {(2, 0, 0): 3, (0, 0, 0): 1}, {"a": W0, "c": 5}),
    # An unbound variable that a term uses must be in the target.
    (("a", "b"), {(1, 1): 1}, {"a": W0}),
    (("a", "b"), {(1, 0): 1, (0, 2): 1}, {"a": W0}),
    (("a", "b", "c"), {(0, 1, 0): 1, (1, 0, 1): Fraction(1, 2)}, {"a": W0, "c": 2}),
    # Scalar bindings mixed with polynomial ones, unbound variables passing through.
    (("a", "b", "c"), {(1, 1, 1): 2, (2, 0, 1): -1}, {"a": Fraction(3, 2), "b": (("w0", "c"), {(1, 1): 1, (0, 0): 2})}),
    (("a", "b", "c"), {(1, 2, 0): 1, (0, 1, 3): GaussianRational(0, 1)}, {"b": -2, "a": (("c", "b"), {(1, 0): 1, (0, 1): 1})}),
    (("a", "b"), {(1, 1): 1, (0, 0): 4}, {"a": GaussianRational(1, 2)}),
    # Images that pass the cap with an unbound factor, also where the terms cancel.
    (("a", "b"), {(1, 1): 1}, {"b": (("a", "w0"), {(0, 64): 1})}),
    (("a", "b", "c"), {(1, 1, 0): 1, (1, 0, 1): -1}, {"b": (("a", "w0"), {(0, 64): 1}), "c": (("a", "w0"), {(0, 64): 1})}),
    (("a", "b", "c"), {(2, 1, 0): 1, (0, 1, 1): 1}, {"b": (("a", "c", "w0"), {(0, 0, 63): 1, (1, 1, 0): 3})}),
]


def test_substitute_foreign_targets_match_reference():
    """Fixed inputs: the random property does not reliably draw these."""
    outcomes = []
    for variables, terms, bindings in SUBSTITUTE_CASES:
        (p, new), (r, old) = _substitute_case(variables, terms, bindings)
        outcomes.append(assert_same_outcome(method("substitute"), (p, new), (r, old)))
        if outcomes[-1][0] == "ok":
            assert_same(p.substitute(new), r.substitute(old))
    kinds = [kind for kind, _ in outcomes]
    assert kinds == ["ok"] * 2 + ["ValueError"] * 3 + ["ok"] * 3 + ["ValueError"] * 3
    assert outcomes[2][1] == "variable 'b' is not in universe ('w0',)"
    assert outcomes[-2][1] == "term degree 65 exceeds the cap of 64"


@st.composite
def reordered_factors(draw):
    """A universe and two factors, each as its terms in two insertion orders;
    most hold a term of degree 33, so that their product passes the cap.
    Also bindings of some variables, as term maps over a target that may lack
    the others: 0, a square, or an image of degree up to 2; and a point that
    may leave variables out."""
    variables = draw(st.sampled_from(UNIVERSES))
    factors = []
    for _ in range(2):
        terms = draw(term_maps(variables))
        if draw(st.integers(0, 3)):
            top = [0] * len(variables)
            top[draw(st.integers(0, len(variables) - 1))] = MAX_TOTAL_DEGREE // 2 + 1
            terms[tuple(top)] = draw(scalars.filter(bool))
        items = list(terms.items())
        factors.append((items, draw(st.permutations(items))))
    target = variables
    if draw(st.booleans()):
        target = ("w0", *draw(st.lists(st.sampled_from(variables), unique=True)))
    images = {}
    for name in draw(st.lists(st.sampled_from(variables), unique=True)):
        kind = draw(st.sampled_from(("zero", "square", "image")))
        if kind == "zero":
            images[name] = {}
        elif kind == "square":
            square = [0] * len(target)
            square[draw(st.integers(0, len(target) - 1))] = 2
            images[name] = {tuple(square): draw(scalars.filter(bool))}
        else:
            images[name] = draw(term_maps(target, max_terms=2, max_degree=2, spikes=False))
    point = {name: draw(scalars) for name in draw(st.lists(st.sampled_from(variables), unique=True))}
    return variables, factors, target, images, point


XY = ("x", "y")


@settings(max_examples=60, deadline=None)
@given(reordered_factors())
@example((XY, [
    ([((33, 0), 1), ((0, 40), 1)], [((0, 40), 1), ((33, 0), 1)]),
    ([((33, 0), 1), ((0, 30), 1)], [((33, 0), 1), ((0, 30), 1)]),
], XY, {}, {}))  # term by term, the first order met degree 66 first and the second 73
@example((XY, [([((33, 0), 1), ((0, 40), 1)], [((0, 40), 1), ((33, 0), 1)]), ([((1, 0), 1)], [((1, 0), 1)])],
          XY, {"x": {(2, 0): 1}, "y": {(0, 2): 1}}, {"x": 1, "y": 1}))  # per term: 66 or 80, by order
@example((XY, [([((1, 40), 1)], [((1, 40), 1)]), ([((1, 0), 1)], [((1, 0), 1)])],
          XY, {"x": {}, "y": {(0, 2): 1}}, {"x": 1, "y": 1}))  # x*y^40 at x = 0: per term, degree 80
@example((("a", "b", "c"), [
    ([((1, 0, 0), 1), ((0, 0, 1), 1)], [((0, 0, 1), 1), ((1, 0, 0), 1)]), ([((0, 1, 0), 1)], [((0, 1, 0), 1)]),
], ("w0",), {"b": {(1,): 1}}, {"a": 1, "b": 1, "c": 1}))  # a + c, b -> w0: per term, 'a' or 'c'
@example((("a", "b", "c"), [
    ([((1, 0, 0), 1), ((0, 40, 0), 1)], [((0, 40, 0), 1), ((1, 0, 0), 1)]), ([((0, 1, 0), 1)], [((0, 1, 0), 1)]),
], ("w0",), {"b": {(2,): 1}}, {"a": 1, "b": 1, "c": 1}))  # a + b^40, b -> w0^2: per term, 'a' or degree 80
@example((("a", "b", "c"), [
    ([((0, 0, 2), 1), ((1, 1, 0), 1)], [((1, 1, 0), 1), ((0, 0, 2), 1)]), ([((0, 1, 0), 1)], [((0, 1, 0), 1)]),
], ("a", "b", "c"), {}, {}))  # c^2 + a*b at no point: by first use, 'c' or 'a'
def test_cap_errors_do_not_depend_on_term_order(case):
    """Equal factors built in other term orders give the same product,
    product sum, substitutions and value, or the same error.  A cap error
    names the largest degree past the cap, as the reference does; a missing
    variable is the first in universe order; a term whose image is 0 raises
    nothing."""
    variables, ((p_items, p_shuffled), (q_items, q_shuffled)), target, images, point = case
    ab = MultiPoly(("a", "b"), {(1, 1): 1})
    bindings = {name: MultiPoly(target, terms) for name, terms in images.items()}

    def outcomes(p_terms, q_terms):
        p, q = MultiPoly(variables, dict(p_terms)), MultiPoly(variables, dict(q_terms))
        return [outcome(operator.mul, p, q),
                outcome(product_sum, variables, [(p, (q._den, q._num)), (q, (p._den, p._num))]),
                outcome(method("substitute"), ab, {"a": p, "b": q}),
                outcome(method("substitute"), p, bindings),
                outcome(method("evaluate"), p, point)]

    got = outcomes(p_items, q_items)
    assert outcomes(p_shuffled, q_shuffled) == got
    r = ref.MultiPoly(variables, dict(p_shuffled))
    assert got[0] == outcome(operator.mul, r, ref.MultiPoly(variables, dict(q_shuffled)))
    if got[0][0] != "ok":
        assert got[1] == got[2] == got[0]
    assert got[3] == substitution_model(r, {name: ref.MultiPoly(target, terms) for name, terms in images.items()})
    assert got[4] == outcome(ref.evaluate, MultiPoly(variables, dict(p_shuffled)), point)


@st.composite
def product_pairs(draw):
    """A universe V and pairs (p, q): p over a subset of V in any order, or
    rarely over a universe with a variable V lacks; q over V, as
    `product_sum` takes it packed.  A pair may repeat an earlier one, with
    p negated or not, so that terms cancel out of the sum and come back."""
    variables = draw(st.sampled_from(UNIVERSES))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        if pairs and draw(st.booleans()):
            (p, r), q = draw(st.sampled_from(pairs))
            pairs.append(((-p, -r), q) if draw(st.booleans()) else ((p, r), q))
            continue
        sub = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
        if draw(st.integers(0, 19)) == 0:
            sub.insert(draw(st.integers(0, len(sub))), "w9")
        p = draw(polys(tuple(sub), max_terms=3))
        pairs.append((p, draw(polys(variables, max_terms=4))))
    return variables, pairs


def packed(pairs):
    """The pairs with each q packed as (den, num), the k-th times k on top
    and bottom: `product_sum` must not need the content divided out."""
    return [(p, (q._den * k, {key: (re * k, im * k) for key, (re, im) in q._num.items()}))
            for k, (p, q) in enumerate(pairs, 1)]


def _cap_free_sum(variables, pairs):
    """sum(p.extend(variables) * q) over reference polynomials, with no
    product checked against the cap: the sum, or `_make`'s error naming its
    largest degree."""
    total: dict = {}
    for p, q in pairs:
        for e1, c1 in p.extend(variables).terms.items():
            for e2, c2 in q.terms.items():
                exps = tuple(map(operator.add, e1, e2))
                total[exps] = total.get(exps, 0) + c1 * c2
    return ref.MultiPoly._make(variables, total)


@settings(max_examples=80, deadline=None)
@given(product_pairs())
@example((("v0", "v1"), [
    (build(("v1",), {(1,): 1}), build(("v0", "v1"), {(1, 0): 1})),
    (build(("v1",), {(1,): -1}), build(("v0", "v1"), {(1, 0): 1, (0, 1): 1})),
    (build(("v0",), {(0,): 1}), build(("v0", "v1"), {(1, 1): 1, (0, 0): 1})),
]))  # v0*v1 cancels in the second pair and comes back in the third
@example((("v0",), [
    (build(("v0",), {(2,): 1}), build(("v0",), {(63,): 1})),
    (build(("v0",), {(2,): -1}), build(("v0",), {(63,): 1})),
]))  # the first product passes the cap, but not the sum, which cancels it
def test_product_sum_matches_reference_chain(case):
    """The cap-free sum, or its error; the chain of `+` and `*` checks each
    product, so it may raise where the sum does not."""
    variables, pairs = case
    new = [(p, q) for (p, _), (q, _) in pairs]
    old = [(r, rq) for (_, r), (_, rq) in pairs]
    got = outcome(product_sum, variables, iter(packed(new)))
    assert got == outcome(_cap_free_sum, variables, old)
    chain = outcome(reference_oracle.product_sum, variables, new)
    assert chain == got or chain[0] == "ValueError" and chain[1].endswith(f"exceeds the cap of {MAX_TOTAL_DEGREE}")
    if got[0] == "ok":
        value = product_sum(variables, packed(new))
        assert_same(value, _cap_free_sum(variables, old))
        if chain[0] == "ok":
            chained = reference_oracle.product_sum(variables, new)
            assert (value._den, value._num) == (chained._den, chained._num)


def unpacked(variables, den, num):
    """A packed (den, num) as a reference polynomial."""
    width = len(variables)
    return ref.MultiPoly(variables, {tuple(key.to_bytes(width + 1, "little")[:width]):
                                     GaussianRational(Fraction(re, den), Fraction(im, den))
                                     for key, (re, im) in num.items()})


def check_fold(variables, held, k, d, left_terms, right_terms):
    """`_add_product(den, num, d, left, right)` is num/den + left*right/d over
    lcm(den, d), added into num when d divides den, and reads left and right only."""
    held = MultiPoly(variables, held)
    den, num = held._den * k, {key: (re * k, im * k) for key, (re, im) in held._num.items()}
    left, right = MultiPoly(variables, left_terms)._num, MultiPoly(variables, right_terms)._num
    before = list(left.items()), list(right.items())
    expected = unpacked(variables, den, num) + unpacked(variables, 1, left) * unpacked(variables, d, right)
    got_den, got_num = _add_product(den, num, d, left, right)
    assert got_den == math.lcm(den, d)
    assert (got_num is num) == (den % d == 0)
    assert (list(left.items()), list(right.items())) == before
    assert_same(MultiPoly._make(variables, got_den, got_num), expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(UNIVERSES), st.integers(1, 3), st.integers(1, 12), st.data())
def test_the_fold_adds_a_product_into_a_held_sum(variables, k, d, data):
    held, left, right = (data.draw(term_maps(variables, spikes=False)) for _ in range(3))
    check_fold(variables, held, k, d, left, right)


V2 = ("v0", "v1")


@pytest.mark.parametrize("held, k, d, left, right", [
    # 3 does not divide 2
    ({(1, 0): Fraction(1, 2)}, 1, 3, {(0, 1): 2, (1, 1): 1}, {(1, 0): 1, (0, 0): GaussianRational(0, 1)}),
    ({}, 1, 5, {(1, 0): 1}, {(0, 1): 3, (1, 0): -1, (2, 2): 1}),  # nothing held, one term times many
    ({(0, 1): 1, (1, 0): 1}, 4, 2, {(0, 1): 1, (1, 0): 1}, {(0, 1): 1}),  # many times one; 2 divides 4
    ({(1, 1): -2}, 1, 1, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),  # the sum's v0*v1 term cancels
    ({(0, 0): 1}, 3, 6, {}, {(1, 0): 1}),  # an empty factor
])
def test_the_fold_on_fixed_inputs(held, k, d, left, right):
    check_fold(V2, held, k, d, left, right)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_zero_operands_match_reference(pair):
    """p + 0, p - 0 and 0 + p return p itself; 0 - p still negates."""
    p, r = pair
    for zero, ref_zero in (build(p.variables, {}), (p - p, r - r)):
        for op in (operator.add, operator.sub):
            assert_same(op(p, zero), op(r, ref_zero))
            assert_same(op(zero, p), op(ref_zero, r))
        if not p.is_zero:
            assert p + zero is p and p - zero is p and zero + p is p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNIVERSES), st.data())
def test_equal_values_have_equal_reprs(variables, data):
    """`repr` lists the terms graded-lex, as `str` does, so a polynomial
    built from the same terms in another order has the same repr, in both
    kernels."""
    terms = data.draw(term_maps(variables, max_terms=6))
    shuffled = dict(data.draw(st.permutations(list(terms.items()))))
    p, q = MultiPoly(variables, terms), MultiPoly(variables, shuffled)
    assert p == q and repr(p) == repr(q) == repr(ref.MultiPoly(variables, shuffled))
    assert repr(p) == f"MultiPoly({variables!r}, {dict(p.ordered_terms())!r})"


@st.composite
def substitutions(draw):
    """A polynomial and bindings of some of its variables, as `_substitute_case`
    takes them.  Images come from a small pool, which holds the variables
    themselves, so that bound terms often cancel and come back."""
    variables = draw(st.sampled_from(UNIVERSES[:5]))
    terms = draw(term_maps(variables, max_terms=6, max_degree=3, spikes=False))
    pool = [(variables, {tuple(int(i == j) for j in range(len(variables))): 1}) for i in range(len(variables))]
    pool += [(variables, draw(term_maps(variables, max_terms=3, max_degree=2, spikes=False))) for _ in range(2)]
    pool.append(draw(scalars))
    bindings = {name: draw(st.sampled_from(pool)) for name in draw(st.lists(st.sampled_from(variables), unique=True))}
    return variables, terms, bindings


XYZW = ("x", "y", "z", "w")


@settings(max_examples=80, deadline=None)
@given(substitutions())
# (x - z + w + y)(x: y, z: y): y cancels with its second image and comes back with the fourth
@example((XYZW, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): 1, (0, 1, 0, 0): 1},
          {"x": (XYZW, {(0, 1, 0, 0): 1}), "z": (XYZW, {(0, 1, 0, 0): 1})}))
def test_substitute_sums_its_images_like_the_reference(case):
    """`substitute` sums its images with `product_sum`; the tuple-keyed
    kernel, which adds coefficients by exponent tuple, gives the same value,
    universe and terms.  Over-cap images are left to
    `test_substitute_matches_reference`."""
    (p, new), (r, old) = _substitute_case(*case)
    got = assert_same_outcome(method("substitute"), (p, new), (r, old))
    if got[0] == "ok":
        assert_same(p.substitute(new), r.substitute(old))


def test_a_perturbed_large_symbol_fails_fast_with_a_short_message():
    """Lap^8 at n = 10 has 24,310 terms; one numerator off by one makes the
    order-free comparison fail at once, naming that monomial briefly."""
    p = symbol_of(parse_operator("Lap^8", 10)).poly
    assert len(p._num) == 24310
    key = sorted(p._num)[len(p._num) // 2]
    num = dict(p._num)
    num[key] = (num[key][0] + p._den, num[key][1])
    perturbed = MultiPoly._make(p.variables, p._den, num)
    start = time.perf_counter()
    with pytest.raises(AssertionError) as failure:
        assert_same_internals(perturbed, p)
    assert time.perf_counter() - start < 1.0
    message = str(failure.value)
    assert len(message) < 1000 and "24310 vs 24310 terms" in message
    width = len(p.variables)
    assert str(tuple(key.to_bytes(width + 1, "little")[:width])) in message
    assert_same_internals(MultiPoly._make(p.variables, p._den, dict(reversed(p._num.items()))), p)
