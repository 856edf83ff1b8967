"""Shared helpers: seeded random values, operators, and a small corpus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from galinv import LPDO, GaussianRational, MultiPoly
from galinv import universe


def internals(p: MultiPoly) -> tuple:
    """A polynomial's universe, denominator and packed term dict (a copy),
    which compare equal whatever order the terms are held in."""
    return p.variables, p._den, dict(p._num)


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else f"{text[:160]}... ({len(text)} characters)"


def _described(result) -> str:
    kind, value = result
    if isinstance(value, MultiPoly):
        return f"({kind!r}, <{len(value._num)} terms over {len(value.variables)} variables>)"
    return _brief(result)


def _first_difference(left, right) -> int:
    """The first index at which two sequences differ, or the shorter length."""
    return next((i for i, (a, b) in enumerate(zip(left, right)) if a != b), min(len(left), len(right)))


def assert_same_internals(new, old, *, with_repr: bool = False) -> None:
    """Assert that two polynomials hold the same universe, denominator and
    packed terms, in any order, and, `with_repr`, the same repr.  Either
    side may instead be an outcome: ("ok", polynomial), compared so, or an
    error's (name, message), compared exactly.

    A mismatch raises with a bounded message: the term counts, the
    denominators, and the least monomial that one side lacks or holds with
    another numerator, with its two numerators.  A plain `==` on the two
    tuples would have pytest diff their whole reprs, which on a polynomial
    of many terms takes minutes and GBs."""
    __tracebackhide__ = True  # pytest reports the caller's line, not this body
    if isinstance(new, tuple):
        if new[0] != "ok" or old[0] != "ok":
            if new[0] != old[0] or new[1] != old[1]:
                raise AssertionError(f"outcomes differ: {_described(new)} != {_described(old)}")
            return
        new, old = new[1], old[1]
    if with_repr:
        left, right = repr(new), repr(old)
        if left != right:
            i = _first_difference(left, right)
            raise AssertionError(
                f"reprs differ: {len(left)} vs {len(right)} characters, first at {i}: "
                f"{left[max(i - 60, 0) : i + 60]!r} vs {right[max(i - 60, 0) : i + 60]!r}")
    (variables, den, terms), (old_variables, old_den, old_terms) = internals(new), internals(old)
    if (variables, den, terms) != (old_variables, old_den, old_terms):
        key = min((key for key in terms.keys() | old_terms.keys() if terms.get(key) != old_terms.get(key)),
                  default=None)
        width = len(variables)  # a key over another universe may run past it
        monomial = None if key is None else tuple(
            key.to_bytes(max(width + 1, key.bit_length() // 8 + 1), "little")[:width])
        raise AssertionError(
            f"packed internals differ: universes {_brief(variables)} vs {_brief(old_variables)}; "
            f"{len(terms)} vs {len(old_terms)} terms; denominators {_brief(den)} vs {_brief(old_den)}; "
            f"first differing monomial {_brief(monomial)}: "
            f"{_brief(terms.get(key))} vs {_brief(old_terms.get(key))}")


def random_fraction(rng: random.Random, bound: int = 5) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gaussian(rng: random.Random, bound: int = 5) -> GaussianRational:
    return GaussianRational(random_fraction(rng, bound), random_fraction(rng, bound))


def random_poly(
    rng: random.Random,
    variables: tuple[str, ...],
    max_terms: int = 4,
    max_degree: int = 3,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(variables)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(len(variables))] += 1
        terms[tuple(exps)] = random_gaussian(rng)
    return MultiPoly(variables, terms)


def random_keys(rng: random.Random, n: int, order: int) -> list[tuple[int, tuple[int, ...]]]:
    """A few derivative keys of order <= `order`, at least one at the top."""

    def key_of_order(total: int) -> tuple[int, tuple[int, ...]]:
        j = rng.randint(0, total)
        alpha = [0] * n
        for _ in range(total - j):
            alpha[rng.randrange(n)] += 1
        return (j, tuple(alpha))

    keys = {key_of_order(order)}
    for _ in range(rng.randint(0, 4)):
        keys.add(key_of_order(rng.randint(0, order)))
    return sorted(keys)


def random_constant_lpdo(rng: random.Random, n: int, order: int) -> LPDO:
    coeffs = {}
    keys = random_keys(rng, n, order)
    for key in keys:
        value = random_gaussian(rng)
        while key[0] + sum(key[1]) == order and not value:
            value = random_gaussian(rng)
        coeffs[key] = value
    return LPDO(n, coeffs)


def random_variable_lpdo(rng: random.Random, n: int, order: int) -> LPDO:
    """Random operator with at least one genuinely non-constant coefficient."""
    names = universe.coeff_vars(n)
    coeffs = {}
    for key in random_keys(rng, n, order):
        coeffs[key] = random_poly(rng, names)
    top = max(coeffs, key=lambda k: k[0] + sum(k[1]))
    while coeffs[top].is_zero:
        coeffs[top] = random_poly(rng, names)
    moving = next((k for k, p in coeffs.items() if not p.is_constant), None)
    if moving is None:
        tvar = MultiPoly.var(names, universe.TIME)
        coeffs[top] = coeffs[top] + tvar
        if coeffs[top].is_constant:  # the addition cancelled; force it
            coeffs[top] = coeffs[top] + tvar * 2
    return LPDO(n, coeffs)


@pytest.fixture
def corpus() -> dict[str, LPDO]:
    """Named constant-coefficient operators used across the suite."""
    ops = {
        "schrodinger-1": LPDO.schrodinger_factor(1, 1),
        "schrodinger-2": LPDO.schrodinger_factor(2, 1),
        "schrodinger-3": LPDO.schrodinger_factor(3, 1),
        "schrodinger-squared": None,  # filled below
        "heat": LPDO.time_derivative(2) + LPDO.laplacian(2).scaled(-1),
        "wave": LPDO.time_derivative(2, 2) + LPDO.laplacian(2).scaled(-1),
        "laplacian": LPDO.laplacian(2),
        "laplacian-shifted": LPDO.laplacian(2) + LPDO.identity(2).scaled(3),
        "identity": LPDO.identity(2),
        "dt": LPDO.time_derivative(2),
        "dx1": LPDO.space_derivative(2, 1),
        "mixed": None,
    }
    from galinv import compose_const

    s2 = ops["schrodinger-2"]
    ops["schrodinger-squared"] = compose_const(s2, s2)
    ops["mixed"] = compose_const(
        LPDO.space_derivative(2, 1), LPDO.space_derivative(2, 2)
    )
    return ops
