"""Brute-force verification path, independent of the symbol calculus.

Everything here applies operators to amplitude-times-exponential waves by
literal term-by-term differentiation and never consults `symbol_of`.
That independence is the point: identities checked both here and through
the symbol route are confirmed by two code paths that share no
intermediate machinery.

The proof applies operators to plane waves and their Galilei images,
whose phases are linear in (t, x), so every wave the oracle meets is
lean: its amplitude and the gradients it steps along are free of the
coordinates stepped along, and a step is a product with a gradient.
`apply_lpdo` differentiates only such waves and refuses every other.
`boost_commutator_defect` reads the operator once, into a plan of packed
derivative runs and coefficient degrees, and walks both of its waves on
that plan: the plane wave, whose gradients are all one term, and the
pulled-back, gauged wave.  The two packed sums meet in one accumulator,
the second subtracted, and become a polynomial once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from . import universe
from .actions import _theta_terms
from .lpdo import LPDO
from .multipoly import MultiPoly, _add_product, _check_cap, _integer_terms, _rational_terms
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


_ONE, _MINUS_ONE = {0: (1, 0)}, {0: (-1, 0)}  # the packed terms of 1 and -1, only ever read


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Apply an operator to a wave term by term, never touching symbols.

    The key dt^j dx^alpha takes j steps along t (axis 0), then alpha_a
    along each x_a (axis a).  The wave must be lean: its universe holds
    every coordinate stepped along, and its amplitude A and each gradient
    g_a = i*dphi/dx_a stepped along are free of those coordinates.  Then a
    step is the product with g_a alone, so L(A e) = A * sum of c * g^(j, alpha)
    over the keys, which `_horner` sums.  Any other wave raises a
    `ValueError` that names the condition it fails.  If a coefficient times
    its derivative would pass the cap, the cap error names the largest such
    degree, before any product is taken.
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
    caller can reach holds, zeros and content not yet taken out.  It checks
    that the wave is lean, then bounds every product's degree: the
    amplitude's plus each key's coefficient degree and steps, a step
    weighing its gradient's degree; a key that steps along a zero gradient,
    or a zero amplitude, makes no product."""
    width, runs, used, top = plan
    names, amplitude = wave.variables, wave.amplitude
    coords = universe.coeff_vars(width - 1)
    for a in used:
        if coords[a] not in names:
            raise ValueError(f"the wave's universe lacks the stepped coordinate {coords[a]!r}")
    table = {a: wave._i_dphi(coords[a]) for a in used}  # axis -> i*dphi, read once
    mask = sum(255 << 8 * names.index(coords[a]) for a in used)
    if any(key & mask for key in amplitude._num):
        raise ValueError("the amplitude depends on a stepped coordinate")
    degree, zero = [0] * width, 0  # zero: the run bytes of the axes whose gradient is 0
    for a, g in table.items():
        if any(key & mask for key in g._num):
            raise ValueError(f"the gradient along {coords[a]!r} depends on a stepped coordinate")
        degree[a] = g.total_degree()
        zero |= 0 if g._num else 255 << 8 * a
    if zero or any(degree[a] != 1 for a in used):  # else a key's degree is its coefficient's plus its order
        top = max((d + sum(map(mul, steps, degree)) for run, steps, _, d in runs if not run & zero), default=0)
    if amplitude._num:
        _check_cap(amplitude.total_degree() + top)
    gradients = {a: (g._den, g._num) for a, g in table.items()}
    return wave.phase, *_horner(names, coords, amplitude, runs, gradients)


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
    child's value, added in decreasing run order by `_add_product` into an
    empty dict that the node owns, over the lcm of the denominators.  A
    node with no sum reads its held coefficient, and a dict that a held
    polynomial owns is read, never added into."""
    lead = names[: len(coords)] == coords  # a constant coefficient is its one key, 0, as it is
    keep, powers = 0, {}  # the bytes of the trie's axes; axis -> [(e*m, z**e, d**e) for e = 0, 1, ...]
    for a, (g_den, g_num) in gradients.items():
        if len(g_num) == 1:
            ((m, z),) = g_num.items()
            powers[a] = [(0, (1, 0), 1), (m, z, g_den)]
        else:
            keep |= 255 << 8 * a
    nodes = {}  # run -> [the coefficient's (den, num) as held or None, den, num summed into]
    for run, steps, poly, _ in runs:
        if not (lead and poly.is_constant):
            poly = poly.extend(names)
        node = nodes.get(run & keep)
        if node is None:
            node = nodes[run & keep] = [None, 1, {}]
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
        node[1:] = _add_product(node[1], node[2], den, poly._num, {shift: (re, im)})
    for run in list(nodes):
        while run:
            run -= 1 << 8 * (run.bit_length() - 1 >> 3)
            if run in nodes:
                break
            nodes[run] = [None, 1, {}]
    for run in sorted(nodes, reverse=True):
        coeff, den, num = nodes[run]
        if coeff is not None:
            den, num = _add_product(den, num, *coeff, _ONE) if num else coeff
        if not run:
            break
        axis = run.bit_length() - 1 >> 3
        parent = nodes[run - (1 << 8 * axis)]
        g_den, g_num = gradients[axis]
        parent[1:] = _add_product(parent[1], parent[2], den * g_den, num, g_num)
    if amplitude._den != 1 or amplitude._num != _ONE:
        den *= amplitude._den
        return _add_product(den, {}, den, num, amplitude._num)
    return den, dict(num) if coeff is not None and num is coeff[1] else num


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
