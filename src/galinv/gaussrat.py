"""Exact Gaussian rationals, held as values.

A Gaussian rational is a complex number whose real and imaginary parts are
both rational.  Each value holds one integer triple (a, b, d) standing for
(a + b*i)/d, normalised so that d > 0 and gcd(a, b, d) == 1; equal values
therefore hold identical triples, and equality is decidable.  A value is
what the package returns and prints: it compares, hashes, negates and
formats, but has no field arithmetic.  The arithmetic runs on the triples
themselves (`_triple`, `_turn`, `_normal`) and on the packed pairs of
`multipoly`, each result normalised with a single gcd.
`fractions.Fraction` appears only at the edges: the constructor accepts
it, `.re` and `.im` return it, and a real value hashes and compares like
the rational it equals.  Values are immutable; they are the coefficients
of every polynomial in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

GaussianLike = Union["GaussianRational", int, Fraction]


def _rational(value: int | Fraction) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """(a + b*i)/d with integers a, b, d, where d > 0 and gcd(a, b, d) == 1."""

    __slots__ = ("_t",)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        p, q = _rational(re)
        r, s = _rational(im)
        a, b, d = p * s, r * q, q * s
        g = gcd(a, b, d)
        _set(self, (a // g, b // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (_make, self._t)

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    @property
    def is_real(self) -> bool:
        return not self._t[1]

    def __bool__(self) -> bool:
        a, b, _ = self._t
        return bool(a or b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            a, b, d = self._t
            return not b and a == other.numerator and d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # Real values hash like the plain rational they equal.
        if self.is_real:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._t
        return _make(-a, -b, d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)


_new = object.__new__
_set = GaussianRational._t.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Internal constructor: (a, b, d) is already normalised."""
    z = _new(GaussianRational)
    _set(z, (a, b, d))
    return z


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _triple(value: GaussianLike) -> tuple[int, int, int]:
    if type(value) is GaussianRational:
        return value._t
    p, q = _rational(value)
    return p, 0, q


def _turn(t: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """(a + b*i)/d times i**k, k quarter-turns (a, b) -> (-b, a); still normalised."""
    a, b, d = t
    if k & 2:
        a, b = -a, -b
    return (-b, a, d) if k & 1 else (a, b, d)


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))

_I_CYCLE = (ONE, I_UNIT, -ONE, -I_UNIT)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k (negative powers wrap: 1/i = -i)."""
    return _I_CYCLE[k % 4]


def as_gaussian(value: GaussianLike) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    p, q = _rational(value)
    return _make(p, 0, q)


def format_gaussian(z: GaussianRational) -> str:
    """Render exactly, e.g. "3", "-1/3", "i", "1/2i", "3/2-1/2i"."""

    def imag(mag: Fraction) -> str:
        return "i" if mag == 1 else f"{mag}i"

    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return imag(z.im) if z.im > 0 else "-" + imag(-z.im)
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{imag(abs(z.im))}"
