"""Variable-universe conventions shared by the whole package.

Every polynomial carries an ordered tuple of variable names.  The names
used throughout are fixed here: ``t`` and ``x1..xn`` for space-time
coordinates, ``tau`` and ``xi1..xin`` for the dual frequency variables,
``v1..vn`` for a symbolic boost velocity, ``s`` for |xi|^2 in the
radial reduction of a rotation-invariant symbol, and ``mu`` for the
combined frequency used when rewriting that reduction in powers of the
Schrodinger factor.
"""

from __future__ import annotations

TIME = "t"
FREQ_TIME = "tau"
MU = "mu"
NORM2 = "s"
# Universes of a reduced rotation-invariant symbol q(tau, s), s = |xi|^2,
# and of its rewrite in mu = 2*lam*tau + s.
RADIAL_VARS = (FREQ_TIME, NORM2)
POWER_VARS = (MU, NORM2)


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
