"""Galilei group elements acting on operators, and the boosts' gauge phase.

Space-time translations and space rotations act on an operator by
conjugation, substituted once in its symbol; the conventions are fixed
so that an operator is invariant under such an element exactly when it
is a fixed point of its conjugation.  Boosts come with their gauge phase

    theta_v(t, x) = c + lam * v.x - (lam/2) * t * |v|^2,

the unique quadratic family (for lam != 0) under which the Schrodinger
factor commutes with the boosted pull-back; for lam = 0 the phase is
x-independent and drops out of every plane-wave computation.  Boost
invariance itself is decided in `checks`, on the radial gauge equation,
and `oracle` applies gauged boosts to plane waves by differentiation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import universe
from .universe import _FrozenValue
from .lpdo import LPDO, Symbol, symbol_of
from .multipoly import MultiPoly, _rational_terms

if TYPE_CHECKING:
    from .matrices import Rotation

QUADRATIC = "quadratic"
X_INDEPENDENT = "x-independent"


class Translation(_FrozenValue):
    """A space-time shift by (s, y)."""

    _fields = ("s", "y")

    def __init__(self, s: Fraction, y: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "s", Fraction(s))
        object.__setattr__(self, "y", tuple(Fraction(c) for c in y))

    @property
    def n(self) -> int:
        return len(self.y)


def conj_translation(op: LPDO, shift: Translation) -> LPDO:
    """Translation conjugation: every coefficient a(t,x) becomes a(t+s, x+y).

    Fixed points are exactly the translation-invariant operators, i.e.
    the ones with constant coefficients.  The shift is substituted once,
    in the symbol; it moves no derivative, so the order is kept.
    """
    if shift.n != op.n:
        raise ValueError(f"shift dimension {shift.n} does not match operator {op.n}")
    sym = symbol_of(op)
    names = sym.poly.variables
    bindings: dict[str, MultiPoly] = {
        universe.TIME: MultiPoly.var(names, universe.TIME) + shift.s
    }
    for a, y in enumerate(shift.y, start=1):
        name = universe.space(a)
        bindings[name] = MultiPoly.var(names, name) + y
    return LPDO._of_symbol(Symbol(sym.poly.substitute(bindings), op.n, op.order))


def rotation_symbol_bindings(
    n: int, rot: Rotation, variables: Sequence[str]
) -> dict[str, MultiPoly]:
    """Substitutions sending xi to R^T xi, i.e. xi_a -> sum_b R[b][a] xi_b,
    for each coordinate a that R moves; the others stay bound to themselves."""
    bindings: dict[str, MultiPoly] = {}
    for a, column in rot.moved_columns():
        acc = MultiPoly.zero(variables)
        for b, value in column:
            acc = acc + MultiPoly.var(variables, universe.freq_space(b)) * value
        bindings[universe.freq_space(a)] = acc
    return bindings


def conj_rotation(op: LPDO, rot: Rotation) -> LPDO:
    """Rotation conjugation at the symbol level: p(tau, xi) -> p(tau, R^T xi)."""
    if rot.n != op.n:
        raise ValueError(f"rotation size {rot.n} does not match operator {op.n}")
    if not op.is_constant_coefficient:
        raise ValueError("rotation conjugation is restricted to constant coefficients")
    sym = symbol_of(op)
    bindings = rotation_symbol_bindings(op.n, rot, sym.poly.variables)
    return LPDO._of_symbol(Symbol(sym.poly.substitute(bindings), op.n, op.order))


class GaugePhase(_FrozenValue):
    """The gauge phase family attached to boosts.

    The kind follows from lam: "quadratic" stands for
    c + lam*v.x - (lam/2)*t*|v|^2 with lam != 0; "x-independent" marks
    the lam = 0 family, where any phase depending on t alone works and no
    canonical polynomial exists.
    """

    _fields = ("lam", "c")

    def __init__(self, lam: Fraction = Fraction(0), c: Fraction = Fraction(0)) -> None:
        object.__setattr__(self, "lam", Fraction(lam))
        object.__setattr__(self, "c", Fraction(c))

    @property
    def kind(self) -> str:
        return QUADRATIC if self.lam else X_INDEPENDENT


def gauge_phase(lam: Fraction | int, c: Fraction | int = 0) -> GaugePhase:
    return GaugePhase(lam, c)


def _theta_terms(lam: Fraction, c: Fraction | int, v: Sequence[Fraction]) -> list[tuple[tuple[int, ...], Fraction]]:
    """theta_v = c + lam*v.x - (lam/2)*t*|v|^2 as (indices, value) pairs, just
    c at lam = 0.  Index 0 is t and index a is x_a, as in `universe.coeff_vars`
    and `universe.symbol_vars`."""
    terms = [((), Fraction(c))]
    if lam:
        terms += [((a,), lam * va) for a, va in enumerate(v, start=1)]
        terms.append(((0,), -lam / 2 * sum(va * va for va in v)))
    return terms


def boost_phase_poly(lam: Fraction | int, c: Fraction | int, n: int, v: Sequence[Fraction | int]) -> MultiPoly:
    """The quadratic phase c + lam*v.x - (lam/2)*t*|v|^2 over (t, x), for a
    concrete v.  All coefficients are real by construction."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lam = 0 phases are x-independent and have no canonical form")
    _check_components("v", v, n)
    return _rational_terms(universe.coeff_vars(n), _theta_terms(lam, c, [Fraction(va) for va in v]))


def _check_components(name: str, values: Sequence | None, n: int) -> None:
    """A vector given for an n-dimensional action has exactly n components."""
    if values is not None and len(values) != n:
        raise ValueError(f"{name} has {len(values)} components, n = {n}")
