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
from .actions import _theta_terms
from .lpdo import LPDO
from .multipoly import MAX_TOTAL_DEGREE, MultiPoly, _nonzero, _product, _rational_terms, product_sum
from .universe import _FrozenValue
from .waves import ExpWave, plane_wave


class SamplePlan(_FrozenValue):
    """Deterministic random-rational sampling: seed and count."""

    _fields = ("seed", "count")

    def __init__(self, seed: int = universe.DEFAULT_SEED, count: int = 32) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        if count < 1:
            raise ValueError("count must be positive")


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Apply an operator to a wave term by term, never touching symbols.

    Keys are visited in sorted order along one chain of packed amplitudes,
    each key a run of steps along axes, t (axis 0) first, then x1..xn: it
    keeps the longest prefix of steps it shares with the chain, drops the
    rest, takes only its missing steps, and hands its derivative packed to
    one `product_sum`.  A step is `ExpWave.differentiate`'s rule; when the
    amplitude and each gradient i*dphi stepped along are free of those
    coordinates and no product can pass the degree cap, dA is zero, and a
    step is the product A*(i*dphi) alone.
    """
    names, amplitude = wave.variables, wave.amplitude
    keys = sorted(op.coeffs.items())
    wants = [sum(((a,) * k for a, k in enumerate(alpha, 1)), (0,) * j) for (j, alpha), _ in keys]
    coords = [universe.TIME] + [universe.space(a) for a in range(1, op.n + 1)]
    used = {a for want in wants for a in want}
    # axis -> (variable index, i*dphi), read once; an axis missing from the universe raises when stepped
    table = {a: (names.index(coords[a]), wave._i_dphi(coords[a])) for a in used if coords[a] in names}
    mask = sum(255 << 8 * index for index, _ in table.values())
    degree = {a: gradient.total_degree() for a, (_, gradient) in table.items()}
    lean = (len(table) == len(used)
            and amplitude.total_degree() + max(sum(map(degree.get, want)) for want in wants) <= MAX_TOTAL_DEGREE
            and not any(key & mask for poly in (amplitude, *(g for _, g in table.values())) for key in poly._num))

    def products() -> Iterator[tuple[MultiPoly, tuple[int, dict]]]:
        steps: tuple[int, ...] = ()
        chain = [(amplitude._den, amplitude._num)]  # chain[k] is the amplitude after steps[:k]
        for ((_, poly), want) in zip(keys, wants):
            keep = 0
            while keep < min(len(steps), len(want)) and steps[keep] == want[keep]:
                keep += 1
            del chain[keep + 1 :]
            for a in want[keep:]:
                den, num = chain[-1]
                if lean:
                    gradient = table[a][1]
                    num = _product(num, gradient._num)
                    chain.append((den * gradient._den, _nonzero(names, num) if (0, 0) in num.values() else num))
                else:  # an axis missing from the universe raises in `partial`
                    step = MultiPoly._make(names, den, num)
                    step = step.partial(coords[a]) + step * table[a][1]
                    chain.append((step._den, step._num))
            steps = want
            yield poly, chain[-1]

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
    # tau*t + xi.(x - v*t) + theta from its terms: variable 0 is t, variable a is x_a, and
    # variable n + 1 + a is the frequency of variable a.  Zero terms drop out.
    phase_terms = [((0, n + 1), 1)]
    for a, va in enumerate(v, start=1):
        phase_terms += [((a, n + 1 + a), 1), ((0, n + 1 + a), -va)]
    phase_terms += _theta_terms(lam, c, v)

    # Both sides end on the pulled-back, gauged phase, built once: the right
    # side's wave carries it, and only the left side's amplitude is pulled
    # back.  So each side must keep the phase of the wave it was given.
    wave = plane_wave(n)
    moved = ExpWave(wave.amplitude, _rational_terms(names, phase_terms))
    lhs, rhs = apply_lpdo(op, wave), apply_lpdo(op, moved)
    if lhs.phase != wave.phase or rhs.phase != moved.phase:
        raise AssertionError("the two sides lost phase alignment")
    amplitude = lhs.amplitude
    if amplitude.degree_in(*names[1 : n + 1]):  # a coefficient holds x: x_a -> x_a - v_a*t
        amplitude = amplitude.substitute(
            {names[a]: _rational_terms(names, [((a,), 1), ((0,), -va)]) for a, va in enumerate(v, start=1)})
    return amplitude - rhs.amplitude

