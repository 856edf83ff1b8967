"""Brute-force verification path, independent of the symbol calculus.

Everything here applies operators to amplitude-times-exponential waves by
literal term-by-term differentiation and never consults `symbol_of`.
That independence is the point: identities checked both here and through
the symbol route are confirmed by two code paths that share no
intermediate machinery.

`boost_commutator_defect` reads the operator once, into a plan of packed
derivative runs and coefficient degrees, and walks both of its waves on
that plan: the plane wave, whose gradients are all one term, and the
pulled-back, gauged wave.  The two packed sums meet in one accumulator,
the second subtracted, and become a polynomial once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from . import universe
from .actions import _theta_terms
from .lpdo import LPDO
from .multipoly import MAX_TOTAL_DEGREE, MultiPoly, _integer_terms, _product, _rational_terms, product_sum
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
_MINUS_ONE = {0: (-1, 0)}  # and of -1


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Apply an operator to a wave term by term, never touching symbols.

    The key dt^j dx^alpha takes j steps along t (axis 0), then alpha_a
    along each x_a (axis a).  When the amplitude A and each gradient
    g_a = i*dphi/dx_a stepped along are free of those coordinates, a step
    is the product with g_a alone, so L(A e) = A * sum of c * g^(j, alpha)
    over the keys.  If also no key's coefficient degree, plus the degrees
    of A and of the gradients along its steps, passes the cap, that sum is
    taken by `_horner`: the steps along one-term gradients scale and shift
    each coefficient, and Horner's rule sums the rest over the trie of the
    keys' remaining steps.  Otherwise keys are visited in sorted order along
    one chain of amplitudes, each step `ExpWave.differentiate`'s rule
    dA + A*g_a: a key keeps the longest prefix of steps it shares with the
    chain, drops the rest, takes only its missing steps, and hands its
    derivative to one `product_sum`.
    """
    phase, den, num = _walk(_plan(op), wave)
    return ExpWave(MultiPoly._make(wave.variables, den, num), phase)


def _plan(op: LPDO) -> tuple:
    """What both sides of a defect read of an operator, built once: the
    width n + 1, each key as (run, steps, coefficient, coefficient degree),
    where the packed run and its step bytes count the steps along each axis
    (byte a, t being axis 0), the axes stepped along, and the largest
    coefficient degree plus order."""
    runs, stepped, top = [], 0, 0
    for (j, alpha), poly in op.coeffs.items():
        steps = bytes((j, *alpha))
        run, degree = int.from_bytes(steps, "little"), poly.total_degree()
        runs.append((run, steps, poly, degree))
        stepped |= run
        top = max(top, degree + j + sum(alpha))
    width = op.n + 1
    return width, runs, [a for a, e in enumerate(stepped.to_bytes(width, "little")) if e], top


def _walk(plan: tuple, wave: ExpWave) -> tuple[MultiPoly, int, dict]:
    """`apply_lpdo` on a plan: the phase of the wave whose gradients it read,
    and the amplitude's packed (den, num), num a dict that no value the
    caller can reach holds, zeros and content not yet taken out."""
    width, runs, used, top = plan
    names, amplitude = wave.variables, wave.amplitude
    coords = universe.coeff_vars(width - 1)
    # axis -> (variable index, i*dphi), read once; an axis missing from the universe raises when stepped
    table = {a: (names.index(coords[a]), wave._i_dphi(coords[a])) for a in used if coords[a] in names}
    mask = sum(255 << 8 * index for index, _ in table.values())
    if len(table) == len(used) and not any(
            key & mask for poly in (amplitude, *(g for _, g in table.values())) for key in poly._num):
        degree = [0] * width
        for a, (_, g) in table.items():
            degree[a] = g.total_degree()
        if any(degree[a] != 1 for a in used):  # else a key's degree is its coefficient's plus its order
            top = max(d + sum(map(mul, steps, degree)) for _, steps, _, d in runs)
        if amplitude.total_degree() + top <= MAX_TOTAL_DEGREE:
            gradients = {a: (g._den, g._num) for a, (_, g) in table.items()}
            return wave.phase, *_horner(names, coords, amplitude, runs, gradients)

    keys = sorted((steps, poly) for _, steps, poly, _ in runs)
    wants = [sum(((a,) * k for a, k in enumerate(steps)), ()) for steps, _ in keys]

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

    total = product_sum(names, products())
    return wave.phase, total._den, total._num


def _horner(names, coords, amplitude, runs, gradients) -> tuple[int, dict]:
    """A * sum of c * prod(g_a ** e_a) over the runs and coefficients, packed
    as (den, num) in a dict of its own, with no product past the cap.

    A gradient of one term, z * m / d, is folded: a key's e steps along it
    scale its coefficient by z**e / d**e and shift its keys by e*m, once,
    as the coefficient enters the node for the key's remaining steps.  So
    the trie holds only steps along gradients of more than one term: the
    plane wave walks none, and a wave pulled back at lam = 0 only its chain
    of t-steps.  A run's parent in the trie drops its last step, one along
    its highest axis, so a child's packed run is larger than its parent's.
    Each node's value is the sum of its coefficients and of g_a times each
    child's value, summed in decreasing run order into one packed dict per
    node over the lcm of the denominators.  A dict that a held polynomial
    owns is read, never added into."""
    lead = names[: len(coords)] == coords  # a constant coefficient is its one key, 0, as it is
    keep, powers = 0, {}  # the bytes of the trie's axes; axis -> [(e*m, z**e, d**e) for e = 0, 1, ...]
    for a, (g_den, g_num) in gradients.items():
        if len(g_num) == 1:
            ((m, z),) = g_num.items()
            powers[a] = [(0, (1, 0), 1), (m, z, g_den)]
        else:
            keep |= 255 << 8 * a
    nodes = {}  # run -> [the coefficient's (den, num) as held or None, den, num summed into or None]
    for run, steps, poly, _ in runs:
        if not (lead and poly.is_constant):
            poly = poly.extend(names)
        node = nodes.get(run & keep)
        if node is None:
            node = nodes[run & keep] = [None, 1, None]
        if not run & ~keep:
            node[0] = (poly._den, poly._num)
            continue
        shift, (re, im), den = 0, (1, 0), poly._den
        for a, table in powers.items():
            e = steps[a]
            if e:
                while len(table) <= e:
                    (m, (x, y), d), (m1, (u, w), d1) = table[-1], table[1]
                    table.append((m + m1, (x * u - y * w, x * w + y * u), d * d1))
                m, (x, y), d = table[e]
                shift, re, im, den = shift + m, re * x - im * y, re * y + im * x, den * d
        if node[2] is None:  # a fresh dict
            node[1:] = den, _product(poly._num, {shift: (re, im)})
        else:
            node[1:] = _add_product(node[1], node[2], den, poly._num, {shift: (re, im)})
    for run in list(nodes):
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
        return den * amplitude._den, _product(num, amplitude._num)
    return den, dict(num) if coeff is not None and num is coeff[1] else num


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
    # Both sides end on the pulled-back, gauged phase, built once: the right
    # side's wave carries it, and only the left side's amplitude is pulled
    # back.  So each side must keep the phase of the wave it was given.
    wave = plane_wave(n)
    moved = ExpWave(wave.amplitude, _boosted_phase(names, lam, v, c))
    plan = _plan(op)
    (left_phase, den, num), (right_phase, d, right) = _walk(plan, wave), _walk(plan, moved)
    if left_phase != wave.phase or right_phase != moved.phase:
        raise AssertionError("the two sides lost phase alignment")
    xs = ((1 << 8 * n) - 1) << 8  # the bytes of x1..xn over (t, x)
    if any(key & xs for _, _, poly, _ in plan[1] for key in poly._num):
        # a coefficient holds x: the left side is pulled back, x_a -> x_a - v_a*t
        pulled = MultiPoly._make(names, den, num).substitute(
            {names[a]: _rational_terms(names, [((a,), 1), ((0,), -va)]) for a, va in enumerate(v, start=1)})
        den, num = pulled._den, pulled._num
    # The left side minus the right, summed into the left side's dict.
    return MultiPoly._make(names, *_add_product(den, num, d, right, _MINUS_ONE))


def _boosted_phase(names: tuple[str, ...], lam: Fraction, v: Sequence[Fraction], c: Fraction | int) -> MultiPoly:
    """tau*t + xi.(x - v*t) + theta_v over the symbol universe, packed in one
    pass over `_theta_terms`' denominator: variable 0 is t, variable a is
    x_a, and variable n + 1 + a is the frequency of variable a."""
    d, terms = _theta_terms(lam, c, v)
    n = len(v)
    terms.append(((0, n + 1), d))
    for a, va in enumerate(v, start=1):
        terms += [((a, n + 1 + a), d), ((0, n + 1 + a), -va.numerator * (d // va.denominator))]
    return _integer_terms(names, d, terms)
