"""The operator description language: parsing, printing, round trips."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MAX_DIMENSION,
    GaussianRational,
    MultiPoly,
    ParseError,
    compose_const,
    format_operator,
    parse_gaussian_literal,
    parse_operator,
)
from galinv import universe
from galinv.cli import main

from conftest import random_constant_lpdo, random_poly, random_variable_lpdo


def F(p, q=1):
    return Fraction(p, q)


def gr(re, im=0):
    return GaussianRational(F(re), F(im))


def test_parse_schrodinger_with_explicit_n():
    op = parse_operator("2i*Dt + Lap", n=3)
    assert op == LPDO.schrodinger_factor(3, 1)


def test_parse_heat():
    op = parse_operator("Dt - Lap", n=2)
    assert op == LPDO.time_derivative(2) + LPDO.laplacian(2).scaled(-1)


def test_parse_variable_coefficient():
    op = parse_operator("t*Dx1")
    names = universe.coeff_vars(1)
    assert op == LPDO(1, {(0, (1,)): MultiPoly.var(names, "t")})


def test_parse_group_power():
    s = LPDO.schrodinger_factor(2, 1)
    assert parse_operator("(2i*Dt + Lap)^2", n=2) == compose_const(s, s)


def test_parse_coefficient_shapes():
    op = parse_operator("(3/2+1/2i)*I")
    assert op.coefficient(0, (0,)).constant_value() == gr(F(3, 2), F(1, 2))
    assert parse_operator("1/2i*I").coefficient(0, (0,)).constant_value() == gr(0, F(1, 2))
    assert parse_operator("(1/2)i*Lap", n=1) == LPDO.laplacian(1).scaled(gr(0, F(1, 2)))


def test_parse_dimension_inference():
    assert parse_operator("Dx2").n == 2
    assert parse_operator("x3*I").n == 3
    assert parse_operator("Dt").n == 1


def test_parse_lap_needs_dimension():
    with pytest.raises(ParseError):
        parse_operator("Lap")


def test_parse_index_exceeding_declared_n():
    with pytest.raises(ParseError):
        parse_operator("Dx3", n=2)


@pytest.mark.parametrize("text, n", [("x0*Dt", None), ("Dx0", None), ("Dx0", 2), ("Dt + x00", 3)])
def test_parse_index_zero_names_the_first_index(text, n):
    with pytest.raises(ParseError, match="spatial indices start at 1"):
        parse_operator(text, n)


def test_parse_index_zero_beats_the_lap_dimension_error(capsys):
    with pytest.raises(ParseError, match="spatial indices start at 1") as exc:
        parse_operator("Lap + Dx0")
    assert (exc.value.line, exc.value.column) == (1, 7)  # the Dx0
    assert main(["check-rotation", "Lap + Dx0"]) == 2
    assert capsys.readouterr().err == "error: line 1, column 7: spatial indices start at 1\n"


def test_parse_zero_operator_rejected():
    with pytest.raises(ParseError):
        parse_operator("Dt - Dt")


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_operator("2i*Dt + ")
    assert "column 9" in str(exc.value)
    with pytest.raises(ParseError):
        parse_operator("Qt")
    with pytest.raises(ParseError):
        parse_operator("(2i*Dt")


def test_parse_rejects_coefficient_after_derivative():
    with pytest.raises(ParseError):
        parse_operator("Dt*t")
    with pytest.raises(ParseError):
        parse_operator("(t*Dx1)^2")


def test_parse_whitespace_insensitive():
    assert parse_operator(" 2i * Dt\n+ Lap ", n=2) == parse_operator("2i*Dt+Lap", n=2)


def test_constant_after_derivative_is_fine():
    assert parse_operator("Dt*2") == LPDO.time_derivative(1).scaled(2)


def test_unary_minus():
    assert parse_operator("-Lap", n=2) == LPDO.laplacian(2).scaled(-1)


def test_power_zero_gives_identity():
    assert parse_operator("(Dt)^0 + Dx1") == LPDO.identity(1) + LPDO.space_derivative(1, 1)


def test_format_parses_back_on_corpus(corpus):
    for op in corpus.values():
        assert parse_operator(format_operator(op), n=op.n) == op


def test_format_parse_roundtrip_random():
    rng = random.Random(314159)
    for _ in range(60):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        assert parse_operator(format_operator(op), n=n) == op
    for _ in range(40):
        n = rng.randint(1, 3)
        op = random_variable_lpdo(rng, n, rng.randint(0, 4))
        assert parse_operator(format_operator(op), n=n) == op


def test_parse_rejects_bad_dimension():
    with pytest.raises(ParseError):
        parse_operator("Lap", n=0)
    for text, n in (("Lap", MAX_DIMENSION + 1), (f"Dx{MAX_DIMENSION + 1}", None)):
        with pytest.raises(ParseError, match=f"exceeds the cap of {MAX_DIMENSION}"):
            parse_operator(text, n)
    assert parse_operator(f"Dx{MAX_DIMENSION}").n == MAX_DIMENSION


def test_parse_gaussian_literal():
    assert parse_gaussian_literal("3/2+1/2i") == gr(F(3, 2), F(1, 2))
    assert parse_gaussian_literal("-2i") == gr(0, -2)
    assert parse_gaussian_literal("0") == gr(0)
    assert parse_gaussian_literal("7") == gr(7)
    with pytest.raises(ParseError):
        parse_gaussian_literal("Dt")


def test_nesting_limit():
    from galinv.multipoly import MAX_NESTING_DEPTH

    deepest = "(" * MAX_NESTING_DEPTH + "Dt" + ")" * MAX_NESTING_DEPTH
    assert parse_operator(deepest) == LPDO.time_derivative(1)
    too_deep = "(" + deepest + ")"
    with pytest.raises(ParseError, match="nest"):
        parse_operator(too_deep)


def test_product_order_errors_point_at_the_operator():
    message = "cannot multiply by a variable-coefficient operator on the right"
    with pytest.raises(ParseError, match=message) as exc:
        parse_operator("Dt*t")
    assert (exc.value.line, exc.value.column) == (1, 3)  # the '*'
    with pytest.raises(ParseError, match=message) as exc:
        parse_operator("(t*Dx1)^2")
    assert (exc.value.line, exc.value.column) == (1, 8)  # the '^'


def test_zero_operator_message():
    with pytest.raises(ParseError) as exc:
        parse_operator("t*(Dt - Dt)")
    assert str(exc.value) == (
        "line 1, column 1: the expression is the zero operator, "
        "which is outside the class"
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_product_of_constant_groups_is_composition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    a = random_constant_lpdo(rng, n, rng.randint(0, 3))
    b = random_constant_lpdo(rng, n, rng.randint(0, 3))
    text = f"({format_operator(a)})*({format_operator(b)})"
    assert parse_operator(text, n=n) == compose_const(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_polynomial_times_group_scales_every_coefficient(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    names = universe.coeff_vars(n)
    p = random_poly(rng, names)
    while p.is_zero:
        p = random_poly(rng, names)
    c = random_variable_lpdo(rng, n, rng.randint(0, 3))
    p_text = format_operator(LPDO(n, {(0, (0,) * n): p}))
    expected = LPDO(n, {key: p * poly for key, poly in c.coeffs.items()})
    assert parse_operator(f"({p_text})*({format_operator(c)})", n=n) == expected


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("Dt^65", 1, "exponent 65 exceeds"),
        ("Dt^2000000000", 1, "exponent 2000000000 exceeds"),
        ("2^65", 1, "exponent 65 exceeds"),
        ("2^2000000000*Dt", 1, "exponent 2000000000 exceeds"),
        ("(2i*Dt+Lap)^1000", 3, "exponent 1000 exceeds"),
        ("(2i*Dt+Lap)^40", 3, "term degree 80 exceeds"),
        ("t^40*Dt^40", 1, "term degree 80 exceeds"),
    ],
)
def test_parse_work_is_bounded(text, n, message):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        parse_operator(text, n=n)
    assert time.perf_counter() - start < 5


def test_exponent_error_points_at_the_exponent():
    with pytest.raises(ParseError) as exc:
        parse_operator("Dt^65")
    assert exc.value.column == 4


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("1/0*Dt", 1, 1, "the number '1/0' has a zero denominator"),
        ("Dt + 2*Dx1\n + 3/0", 2, 4, "the number '3/0' has a zero denominator"),
        ("(1/0)i + Dt", 1, 2, "the number '1/0' has a zero denominator"),
        ("9" * 4301 + "*Dt", 1, 1, "the number has more than 4300 digits"),
        ("Dt + 1/" + "7" * 4301, 1, 6, "the number has more than 4300 digits"),
        ("Dt^" + "0" * 4301 + "2", 1, 4, "the number has more than 4300 digits"),
        ("Dt + Dx" + "0" * 4301 + "1", 1, 6, "the number has more than 4300 digits"),
        ("x" + "1" * 4301 + "*Dt", 1, 1, "the number has more than 4300 digits"),
    ],
)
def test_unreadable_numbers_are_parse_errors_at_the_literal(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_operator(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_unreadable_scalar_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="line 1, column 3: the number '2/0' has a zero denominator"):
        parse_gaussian_literal("1+2/0i")


def test_wide_sum_of_powers_parses_fast():
    """A product's degree check maps each name to its position once, so a
    summand over the 2n + 2 symbol variables costs about n, not n^2."""
    n = 500
    text = " + ".join(f"Dx{a}^4" for a in range(1, n + 1))
    start = time.perf_counter()
    op = parse_operator(text, n=n)
    assert time.perf_counter() - start < 1.5
    assert op.order == 4 and op.is_constant_coefficient


def test_wide_sum_at_the_dimension_cap_parses_fast():
    """The summands are added up in one pass and the refusal test reads two
    byte masks, so no summand costs a pass over the running sum or the names."""
    n = MAX_DIMENSION
    text = " + ".join(f"Dx{a}^4" for a in range(1, n + 1))
    start = time.perf_counter()
    op = parse_operator(text, n=n)
    assert time.perf_counter() - start < 1.5
    assert op.order == 4 and len(op.coeffs) == n


_SUMMANDS = ("Dt", "Dx1^2", "Lap", "t*Dx2", "x1", "2i", "1/3*Dt^2", "(Dx1 - Dt)^2", "Dx1*Dx2")


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(_SUMMANDS)), min_size=1, max_size=8))
def test_sum_matches_the_left_to_right_chain(signed):
    """The one-pass sum keeps the value and denominator of adding the
    summands one at a time, cancellations included."""
    from galinv.opparse import _Parser, _tokenize

    def symbol(text):
        return _Parser(_tokenize(text), 2).parse()

    chain = -symbol(signed[0][1]) if signed[0][0] == "-" else symbol(signed[0][1])
    for sign, summand in signed[1:]:
        chain = chain + (-symbol(summand) if sign == "-" else symbol(summand))
    text = ("-" if signed[0][0] == "-" else "") + signed[0][1]
    text += "".join(f" {sign} {summand}" for sign, summand in signed[1:])
    total = symbol(text)
    assert (total._den, total._num) == (chain._den, chain._num)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(_SUMMANDS)), min_size=1, max_size=8), st.data())
def test_sums_parsed_in_two_orders_have_equal_reprs(signed, data):
    """A sum is held in the order its summands come, but its value, and so
    its repr, does not depend on that order."""
    from galinv.opparse import _Parser, _tokenize

    def symbol(terms):
        text = "".join(f" {sign} {summand}" for sign, summand in terms)
        return _Parser(_tokenize(text.lstrip(" +")), 2).parse()

    first, second = symbol(signed), symbol(data.draw(st.permutations(signed)))
    assert first == second and repr(first) == repr(second)


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# Pieces of operator texts over several lines, some of them bad.
_PIECES = ("\n", "\n\n", " ", "\t", "Dt", "Dx1", "Dx0", "Lap", "x2", "t", "i", "2", "1/2",
           "+", "-", "*", "^", "(", ")", "@", ",")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30))
def test_positions_match_the_backward_line_scan(pieces):
    """Bisecting the line starts gives each token, and each `ParseError`,
    the line and column of the old backward scan."""
    from unittest import mock

    from galinv import opparse

    import reference_opparse

    text = "".join(pieces)
    assert _outcome(opparse._tokenize, text) == _outcome(reference_opparse.tokenize, text)
    parse = lambda text: parse_operator(text, n=2)  # noqa: E731
    with mock.patch.object(opparse, "_tokenize", reference_opparse.tokenize):
        old = _outcome(parse, text)
    assert _outcome(parse, text) == old


def test_many_lines_parse_fast():
    """Each token's line is found by bisection, so a text of k lines costs
    about k log k, not k^2."""
    k = 20_000
    text = "\n+ ".join(["Dt"] * k)
    start = time.perf_counter()
    op = parse_operator(text)
    assert time.perf_counter() - start < 2.0
    assert op == LPDO.time_derivative(1).scaled(k)
    with pytest.raises(ParseError) as exc:
        parse_operator(text + "\n+ @")
    assert (exc.value.line, exc.value.column) == (k + 1, 3)
