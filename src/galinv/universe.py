"""Variable-universe conventions shared by the whole package.

Every polynomial carries an ordered tuple of variable names.  The names
used throughout are fixed here: ``t`` and ``x1..xn`` for space-time
coordinates, ``tau`` and ``xi1..xin`` for the dual frequency variables,
and ``v1..vn`` for a symbolic boost velocity.  The default seed of the
sampled checks and the draw of a random rational are fixed here too, and
so is the behaviour shared by the package's value classes.  Each universe
is built once per recently used dimension and shared, so that equal
universes are usually one object, which `MultiPoly`'s identity checks
take at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import random

TIME = "t"
FREQ_TIME = "tau"
DEFAULT_SEED = 94281
# Dimensions whose universes and plane waves stay built, the most recently
# used first.  Unbounded, a sweep over n = 1..1000 would keep about 130 MiB
# of universes and 870 MiB of plane waves alive.
CACHED_DIMENSIONS = 16


def random_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


class _Value:
    """A record of the attributes named in `_fields`, which each subclass's
    own `__init__` sets: equal to another of the same class with equal
    fields, shown as ``Name(field=value!r, ...)``, and unhashable."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class _FrozenValue(_Value):
    """A `_Value` whose fields `__init__` sets once with `object.__setattr__`:
    it refuses assignment and deletion, and hashes its fields."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())


def space(a: int) -> str:
    """Name of the a-th spatial coordinate, 1-based."""
    return f"x{a}"


def freq_space(a: int) -> str:
    """Name of the a-th spatial frequency, 1-based."""
    return f"xi{a}"


def boost(a: int) -> str:
    """Name of the a-th boost-velocity component, 1-based."""
    return f"v{a}"


@lru_cache(maxsize=CACHED_DIMENSIONS)
def coeff_vars(n: int) -> tuple[str, ...]:
    """Universe for operator coefficients: (t, x1..xn)."""
    return (TIME,) + tuple(space(a) for a in range(1, n + 1))


@lru_cache(maxsize=CACHED_DIMENSIONS)
def symbol_vars(n: int) -> tuple[str, ...]:
    """Universe for operator symbols: (t, x1..xn, tau, xi1..xin)."""
    return coeff_vars(n) + (FREQ_TIME,) + tuple(freq_space(a) for a in range(1, n + 1))


@lru_cache(maxsize=CACHED_DIMENSIONS)
def boost_vars(n: int) -> tuple[str, ...]:
    """Symbol universe extended by a symbolic boost velocity (v1..vn)."""
    return symbol_vars(n) + tuple(boost(a) for a in range(1, n + 1))


@lru_cache(maxsize=CACHED_DIMENSIONS)
def phase_vars(n: int) -> tuple[str, ...]:
    """Universe for gauge phases with a symbolic velocity: (t, x, v)."""
    return coeff_vars(n) + tuple(boost(a) for a in range(1, n + 1))
