"""The Fraction-pair Gaussian-rational kernel, kept as a reference.

The package holds a Gaussian rational as one normalised integer triple
(a, b, d) for (a + b*i)/d.  The representation it replaced lives here
unchanged: both parts held as `fractions.Fraction` in a frozen
dataclass, each operation built from Fraction arithmetic.  The tests
require the two kernels to agree exactly, value for value, on every
operation, string, hash and error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

GaussianLike = Union["GaussianRational", int, Fraction]


def _frac(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """re + im*i with exact rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Real values hash like the plain rational they equal.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: GaussianLike) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: GaussianLike) -> "GaussianRational":
        return self + (-as_gaussian(other))

    def __rsub__(self, other: GaussianLike) -> "GaussianRational":
        return as_gaussian(other) + (-self)

    def __mul__(self, other: GaussianLike) -> "GaussianRational":
        other = as_gaussian(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: GaussianLike) -> "GaussianRational":
        other = as_gaussian(other)
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other: GaussianLike) -> "GaussianRational":
        return as_gaussian(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)


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
    return GaussianRational(_frac(value))


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
