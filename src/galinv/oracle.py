"""Brute-force verification path, independent of the symbol calculus.

Everything here applies operators to amplitude-times-exponential waves by
literal term-by-term differentiation and never consults `symbol_of`.
That independence is the point: identities checked both here and through
the symbol route are confirmed by two code paths that share no
intermediate machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from . import universe
from .actions import _theta_terms
from .lpdo import LPDO
from .multipoly import MAX_TOTAL_DEGREE, MultiPoly, _product, _rational_terms, product_sum
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


_ONE = {0: (1, 0)}  # the packed terms of 1, only ever read


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Apply an operator to a wave term by term, never touching symbols.

    The key dt^j dx^alpha takes j steps along t (axis 0), then alpha_a
    along each x_a (axis a).  When the amplitude A and each gradient
    g_a = i*dphi/dx_a stepped along are free of those coordinates, a step
    is the product with g_a alone, so L(A e) = A * sum of c * g^(j, alpha)
    over the keys.  If also no key's coefficient degree, plus the degrees
    of A and of the gradients along its steps, passes the cap, that sum is
    taken by Horner's rule over the trie of the keys' steps (`_horner`).
    Otherwise keys are visited in sorted order along one chain of
    amplitudes, each step `ExpWave.differentiate`'s rule dA + A*g_a: a key
    keeps the longest prefix of steps it shares with the chain, drops the
    rest, takes only its missing steps, and hands its derivative to one
    `product_sum`.
    """
    names, amplitude, width = wave.variables, wave.amplitude, op.n + 1
    coords = (universe.TIME, *(universe.space(a) for a in range(1, width)))
    # A key's steps packed: byte a counts its steps along axis a.
    runs = {int.from_bytes(bytes((j, *alpha)), "little"): poly for (j, alpha), poly in op.coeffs.items()}
    stepped = 0
    for run in runs:
        stepped |= run
    used = [a for a, e in enumerate(stepped.to_bytes(width, "little")) if e]
    # axis -> (variable index, i*dphi), read once; an axis missing from the universe raises when stepped
    table = {a: (names.index(coords[a]), wave._i_dphi(coords[a])) for a in used if coords[a] in names}
    mask = sum(255 << 8 * index for index, _ in table.values())
    degree = [table[a][1].total_degree() if a in table else 0 for a in range(width)]
    if (len(table) == len(used)
            and not any(key & mask for poly in (amplitude, *(g for _, g in table.values())) for key in poly._num)
            and amplitude.total_degree() + max(
                poly.total_degree() + sum(map(mul, run.to_bytes(width, "little"), degree))
                for run, poly in runs.items()) <= MAX_TOTAL_DEGREE):
        gradients = {a: (g._den, g._num) for a, (_, g) in table.items()}
        return ExpWave(_horner(names, coords, amplitude, runs, gradients), wave.phase)

    keys = sorted(op.coeffs.items())
    wants = [sum(((a,) * k for a, k in enumerate(alpha, 1)), (0,) * j) for (j, alpha), _ in keys]

    def products() -> Iterator[tuple[MultiPoly, tuple[int, dict]]]:
        steps: tuple[int, ...] = ()
        chain = [amplitude]  # chain[k] is the amplitude after steps[:k]
        for ((_, poly), want) in zip(keys, wants):
            keep = 0
            while keep < min(len(steps), len(want)) and steps[keep] == want[keep]:
                keep += 1
            del chain[keep + 1 :]
            for a in want[keep:]:  # an axis missing from the universe raises in `partial`
                step = chain[-1]
                chain.append(step.partial(coords[a]) + step * table[a][1])
            steps = want
            yield poly, (chain[-1]._den, chain[-1]._num)

    return ExpWave(product_sum(names, products()), wave.phase)


def _horner(names, coords, amplitude, runs, gradients) -> MultiPoly:
    """A * sum of c * prod(g_a ** e_a) over the packed runs and coefficients,
    with no product past the cap.

    A run's parent in the trie drops its last step, one along its highest
    axis, so a child's packed run is larger than its parent's.  Each node's
    value is c + sum_a g_a * value(child), summed in decreasing run order
    into one packed dict per node over the lcm of the denominators.  A dict
    that a held polynomial owns is read, never added into."""
    lead = names[: len(coords)] == coords  # a constant coefficient is its one key, 0, as it is
    nodes = {}  # run -> [the coefficient's (den, num) or None, den, num summed from the children or None]
    for run, poly in runs.items():
        if not (lead and poly.is_constant):
            poly = poly.extend(names)
        nodes[run] = [(poly._den, poly._num), 1, None]
    for run in runs:
        while run:
            run -= 1 << 8 * (run.bit_length() - 1 >> 3)
            if run in nodes:
                break
            nodes[run] = [None, 1, None]
    for run in sorted(nodes, reverse=True):
        coeff, den, num = nodes[run]
        if num is None:
            den, num = coeff
        elif coeff is not None:
            den, num = _add_product(den, num, *coeff, _ONE)
        if not run:
            break
        axis = run.bit_length() - 1 >> 3
        parent = nodes[run - (1 << 8 * axis)]
        g_den, g_num = gradients[axis]
        if parent[2] is None:  # a fresh dict
            parent[1:] = den * g_den, _product(num, g_num)
        else:
            parent[1:] = _add_product(parent[1], parent[2], den * g_den, num, g_num)
    if amplitude._den != 1 or amplitude._num != _ONE:
        den, num = den * amplitude._den, _product(num, amplitude._num)
    return MultiPoly._make(names, den, num)


def _add_product(den: int, num: dict, d: int, left: dict, right: dict) -> tuple[int, dict]:
    """num/den + left*right/d over lcm(den, d), added into num, a dict no polynomial holds."""
    if den % d:
        common = lcm(den, d)
        scale, den = common // den, common
        num = {key: (re * scale, im * scale) for key, (re, im) in num.items()}
    m, get = den // d, num.get
    for k2, (c, e) in right.items():
        c, e = c * m, e * m
        for k1, (a, b) in left.items():
            key = k1 + k2
            re, im = get(key, (0, 0))
            num[key] = (re + a * c - b * e, im + a * e + b * c)
    return den, num


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

