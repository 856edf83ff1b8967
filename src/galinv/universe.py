"""Variable-universe conventions shared by the whole package.

Every polynomial carries an ordered tuple of variable names.  The names
used throughout are fixed here: ``t`` and ``x1..xn`` for space-time
coordinates, ``tau`` and ``xi1..xin`` for the dual frequency variables,
and ``v1..vn`` for a symbolic boost velocity.  The default seed of the
sampled checks is fixed here too.
"""

from __future__ import annotations

TIME = "t"
FREQ_TIME = "tau"
DEFAULT_SEED = 94281


def space(a: int) -> str:
    """Name of the a-th spatial coordinate, 1-based."""
    return f"x{a}"


def freq_space(a: int) -> str:
    """Name of the a-th spatial frequency, 1-based."""
    return f"xi{a}"


def boost(a: int) -> str:
    """Name of the a-th boost-velocity component, 1-based."""
    return f"v{a}"


def coeff_vars(n: int) -> tuple[str, ...]:
    """Universe for operator coefficients: (t, x1..xn)."""
    return (TIME,) + tuple(space(a) for a in range(1, n + 1))


def symbol_vars(n: int) -> tuple[str, ...]:
    """Universe for operator symbols: (t, x1..xn, tau, xi1..xin)."""
    return coeff_vars(n) + (FREQ_TIME,) + tuple(freq_space(a) for a in range(1, n + 1))


def boost_vars(n: int) -> tuple[str, ...]:
    """Symbol universe extended by a symbolic boost velocity (v1..vn)."""
    return symbol_vars(n) + tuple(boost(a) for a in range(1, n + 1))


def phase_vars(n: int) -> tuple[str, ...]:
    """Universe for gauge phases with a symbolic velocity: (t, x, v)."""
    return coeff_vars(n) + tuple(boost(a) for a in range(1, n + 1))
