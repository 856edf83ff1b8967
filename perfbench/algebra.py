"""Operator tables built apart from the program, and the sympy checks.

A table maps a derivative key (j, alpha) to a complex rational held as a
pair of Fractions (re, im).  The workload generators build every input
operator as such a table, so the answer a case expects comes from how
the case was built and not from the program under test.  sympy is
imported only by the check functions, which run after the timed window.
"""

from __future__ import annotations

import random
from fractions import Fraction

Complex = tuple[Fraction, Fraction]
Key = tuple[int, tuple[int, ...]]
Table = dict[Key, Complex]

ZERO: Complex = (Fraction(0), Fraction(0))
ONE: Complex = (Fraction(1), Fraction(0))


def cadd(a: Complex, b: Complex) -> Complex:
    return (a[0] + b[0], a[1] + b[1])


def cmul(a: Complex, b: Complex) -> Complex:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a: Complex, b: Complex) -> Complex:
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def random_fraction(rng: random.Random, bound: int = 4) -> Fraction:
    """A nonzero rational p/q with 1 <= |p| <= bound and q in {1, 2}.

    Zero is left out, so every coefficient has a real and an imaginary
    part, and the denominators stay small: the exact arithmetic a case
    costs then varies little from seed to seed.
    """
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, 2))


def random_complex(rng: random.Random) -> Complex:
    return (random_fraction(rng), random_fraction(rng))


def unit(n: int, a: int, k: int = 1) -> tuple[int, ...]:
    return tuple(k if b == a else 0 for b in range(1, n + 1))


def add_tables(*tables: Table) -> Table:
    out: Table = {}
    for table in tables:
        for key, value in table.items():
            out[key] = cadd(out.get(key, ZERO), value)
    return {key: value for key, value in out.items() if value != ZERO}


def mul_tables(a: Table, b: Table) -> Table:
    """Composition of constant-coefficient operators."""
    out: Table = {}
    for (j1, a1), c1 in a.items():
        for (j2, a2), c2 in b.items():
            key = (j1 + j2, tuple(x + y for x, y in zip(a1, a2)))
            out[key] = cadd(out.get(key, ZERO), cmul(c1, c2))
    return {key: value for key, value in out.items() if value != ZERO}


def scale(table: Table, c: Complex) -> Table:
    return {key: cmul(value, c) for key, value in table.items() if cmul(value, c) != ZERO}


def monomial(n: int, j: int, alpha: tuple[int, ...], c: Complex = ONE) -> Table:
    return {(j, tuple(alpha)): c}


def factor(n: int, lam: Fraction) -> Table:
    """2i*lam*Dt + Lap."""
    table = {(0, unit(n, a, 2)): ONE for a in range(1, n + 1)}
    if lam:
        table[(1, (0,) * n)] = (Fraction(0), 2 * lam)
    return table


def power(table: Table, n: int, k: int) -> Table:
    out = monomial(n, 0, (0,) * n)
    for _ in range(k):
        out = mul_tables(out, table)
    return out


def power_form(n: int, lam: Fraction, coeffs: list[Complex]) -> Table:
    """sum c_j (2i*lam*Dt + Lap)^j."""
    step = factor(n, lam)
    total: Table = {}
    current = monomial(n, 0, (0,) * n)
    for j, c in enumerate(coeffs):
        if j:
            current = mul_tables(current, step)
        total = add_tables(total, scale(current, c))
    return total


def laplacian_power(n: int, k: int, c: Complex = ONE) -> Table:
    lap = {(0, unit(n, a, 2)): ONE for a in range(1, n + 1)}
    return scale(power(lap, n, k), c)


def order_of(table: Table) -> int:
    return max(j + sum(alpha) for j, alpha in table)


# ----------------------------------------------------------------------
# text in the operator language


def literal(c: Complex) -> str:
    """A parenthesised complex rational the operator language reads."""
    re, im = c
    sign = "-" if im < 0 else "+"
    return f"({re}{sign}{abs(im)}i)"


def parse_complex(text: str) -> Complex:
    """Read a value the program prints: "3", "-1/3", "i", "1/2i", "3/2-1/2i"."""
    text = text.strip()
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        re_text, im_text = body[:split], body[split:]
    else:
        re_text, im_text = "0", body
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    return (Fraction(re_text), Fraction(im_text))


# ----------------------------------------------------------------------
# sympy checks (never called inside a timed region)


def _sympy_symbol(table: Table, n: int):
    import sympy

    tau = sympy.Symbol("tau")
    xi = sympy.symbols(f"xi1:{n + 1}")
    total = sympy.Integer(0)
    for (j, alpha), (re, im) in table.items():
        term = (sympy.Rational(re) + sympy.I * sympy.Rational(im)) * (sympy.I * tau) ** j
        for x, e in zip(xi, alpha):
            term *= (sympy.I * x) ** e
        total += term
    return total, tau, xi


def symbol_is_power_form(table: Table, n: int, lam: Fraction, coeffs: list[Complex]) -> bool:
    """sum a (i tau)^j (i xi)^alpha == sum c_j (-(2 lam tau + |xi|^2))^j."""
    import sympy

    p, tau, xi = _sympy_symbol(table, n)
    s = -(2 * sympy.Rational(lam) * tau + sum(x**2 for x in xi))
    target = sum(
        (sympy.Rational(re) + sympy.I * sympy.Rational(im)) * s**j
        for j, (re, im) in enumerate(coeffs)
    )
    return sympy.expand(p - target) == 0


def rotation_moves_symbol(table: Table, n: int, rows: list[list[Fraction]]) -> bool:
    """p(tau, R^T xi) != p(tau, xi) for the rational matrix R."""
    import sympy

    p, tau, xi = _sympy_symbol(table, n)
    moved = {
        xi[a]: sum(sympy.Rational(rows[b][a]) * xi[b] for b in range(n)) for a in range(n)
    }
    return sympy.expand(p.xreplace(moved) - p) != 0


def shift_moves_coefficient(terms: dict[tuple[int, ...], Complex], s: Fraction, y) -> bool:
    """a(t + s, x + y) != a(t, x) for a coefficient polynomial over (t, x)."""
    import sympy

    names = sympy.symbols(f"c0:{len(y) + 1}")
    shifts = (s,) + tuple(y)
    poly = sympy.Integer(0)
    for exps, (re, im) in terms.items():
        term = sympy.Rational(re) + sympy.I * sympy.Rational(im)
        for v, e in zip(names, exps):
            term *= v**e
        poly += term
    moved = poly.xreplace({v: v + sympy.Rational(d) for v, d in zip(names, shifts)})
    return sympy.expand(moved - poly) != 0
