"""Brute-force verification path, independent of the symbol calculus.

Everything here applies operators to amplitude-times-exponential waves by
literal term-by-term differentiation and never consults `symbol_of`.
That independence is the point: identities checked both here and through
the symbol route are confirmed by two code paths that share no
intermediate machinery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from . import universe
from .lpdo import LPDO
from .multipoly import MultiPoly, _chain_step, _rational_terms, product_sum
from .universe import _FrozenValue
from .waves import ExpWave, plane_wave


class SamplePlan(_FrozenValue):
    """Deterministic random-rational sampling: seed, count, coordinate bound."""

    _fields = ("seed", "count", "bound")

    def __init__(self, seed: int = universe.DEFAULT_SEED, count: int = 32, bound: int = 10) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "bound", bound)
        if count < 1 or bound < 1:
            raise ValueError("count and bound must be positive")


def _steps(j: int, alpha: Sequence[int]) -> list[str]:
    """The chain-rule steps of dt^j dx^alpha: t first, then x1..xn."""
    steps = [universe.TIME] * j
    for a, k in enumerate(alpha, start=1):
        steps += [universe.space(a)] * k
    return steps


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Apply an operator to a wave term by term, never touching symbols.

    Keys are visited in sorted order along one chain of derivatives:
    each key keeps the longest prefix of steps it shares with the chain,
    drops the rest, and takes only its missing steps.  The chain holds
    packed amplitudes, stepped by `ExpWave.differentiate`'s rule, and only
    each key's derivative becomes a polynomial.  Each product of a
    coefficient and a derivative is added to the sum as it is formed.
    """
    names, amplitude = wave.variables, wave.amplitude

    def products() -> Iterator[tuple[MultiPoly, MultiPoly]]:
        steps: list[str] = []
        chain = [(amplitude._den, amplitude._num)]  # chain[k] is the amplitude after steps[:k]
        for (j, alpha), poly in sorted(op.coeffs.items()):
            want = _steps(j, alpha)
            keep = 0
            while keep < min(len(steps), len(want)) and steps[keep] == want[keep]:
                keep += 1
            del steps[keep:], chain[keep + 1 :]
            for name in want[keep:]:
                chain.append(_chain_step(names, amplitude._index(name), *chain[-1], wave._i_dphi(name)))
                steps.append(name)
            yield poly, MultiPoly._make(names, *chain[-1])

    return ExpWave(product_sum(names, products()), wave.phase)


def boost_commutator_defect(
    op: LPDO,
    lam: Fraction | int,
    v: Sequence[Fraction | int],
    c: Fraction | int = 0,
) -> MultiPoly:
    """Amplitude of  e^{i theta_v} G_v* L e  minus  L e^{i theta_v} G_v* e.

    Both sides are computed on the plane wave with symbolic frequency by
    literal differentiation; the result is the zero polynomial exactly
    when the gauged boost commutes with the operator on all plane waves.
    """
    n = op.n
    if len(v) != n:
        raise ValueError(f"boost has {len(v)} components, expected {n}")
    lam, v = Fraction(lam), [Fraction(va) for va in v]
    names = universe.symbol_vars(n)
    # theta = c + lam*v.x - (lam/2)*|v|^2*t, from its terms: variable 0 is
    # t and variable a is x_a.  Zero terms drop out.
    phase_terms = [((), c)]
    if lam:
        phase_terms += [((a,), lam * va) for a, va in enumerate(v, start=1)]
        phase_terms.append(((0,), -lam / 2 * sum(va * va for va in v)))
    theta = _rational_terms(names, phase_terms)
    pullback = {
        universe.space(a): _rational_terms(names, [((a,), 1), ((0,), -va)])
        for a, va in enumerate(v, start=1)
    }

    # Both sides end on the pulled-back, gauged phase, built once: the right
    # side's wave carries it, and only the left side's amplitude is pulled
    # back.  So each side must keep the phase of the wave it was given.
    wave = plane_wave(n)
    moved = wave.substitute(pullback).with_phase_added(theta)
    lhs, rhs = apply_lpdo(op, wave), apply_lpdo(op, moved)
    if lhs.phase != wave.phase or rhs.phase != moved.phase:
        raise AssertionError("the two sides lost phase alignment")
    return lhs.amplitude.substitute(pullback) - rhs.amplitude

