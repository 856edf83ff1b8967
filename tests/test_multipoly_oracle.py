"""The packed-monomial kernel against the tuple-keyed reference kernel.

Every polynomial is built twice, once in each kernel, from the same term
map.  Each operation and accessor must then give the same repr (which
fixes the universe, the term order and every coefficient), the same
str and `.terms`, and the same error type and message.  The package's
results must also be canonical: a positive denominator, a content of 1,
no zero numerators, and exactly the internals that building the
reference's result from scratch gives, so equal values hold identical
internals.
"""

import math
import operator
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galinv import MAX_TOTAL_DEGREE, GaussianRational, MultiPoly, universe

import reference_multipoly as ref

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
    assert list(value.terms.items()) == list(reference.terms.items())
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
    assert list(rebuilt._num.items()) == list(value._num.items())


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
def test_powers_match_reference(pair, k):
    p, r = pair
    assert_same_outcome(operator.pow, (p, k), (r, k))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(UNIVERSES), st.data())
def test_products_over_the_cap_fail_like_reference(variables, data):
    """Both factors hold a term of degree 33, so their product has a
    nonzero part of degree 66 or more; the first term over the cap, in
    term order, must name the same degree."""
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
    split, ref_split = p.split_by(name), r.split_by(name)
    assert list(split) == list(ref_split)
    for k in split:
        assert_same(split[k], ref_split[k])
    grading = data.draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    parts, ref_parts = p.homogeneous_parts(grading), r.homogeneous_parts(grading)
    assert list(parts) == list(ref_parts)
    for d in parts:
        assert_same(parts[d], ref_parts[d])
    extra = data.draw(st.lists(st.sampled_from(("w0", "w1", "w2")), unique=True))
    target = tuple(data.draw(st.permutations(names + tuple(extra))))
    assert_same(p.extend(target), r.extend(target))
    assert_same_outcome(method("extend"), (p, target[1:]), (r, target[1:]))


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_degree=3), st.data())
def test_substitute_matches_reference(pair, data):
    p, r = pair
    names = p.variables
    kind = data.draw(st.sampled_from(("same", "wider", "foreign")))
    if kind == "same":
        target = names
    elif kind == "wider":
        target = names + ("w0", "w1")
    else:
        target = ("w0", "w1", "w2")
    bound = data.draw(st.lists(st.sampled_from(names), unique=True))
    if kind == "foreign":
        bound = list(names) if data.draw(st.booleans()) else bound
    new, old = {}, {}
    for name in bound:
        if data.draw(st.booleans()):
            value = data.draw(scalars)
            new[name] = old[name] = value
        else:
            image, ref_image = data.draw(polys(target, max_terms=2, max_degree=2))
            new[name], old[name] = image, ref_image
    assert_same_outcome(method("substitute"), (p, new), (r, old))


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
