"""Exact deciders for each invariance property.

Each check returns a `CheckReport`: on success it names the certificate
that establishes invariance, on failure it carries a witness that can be
re-applied to reproduce a concrete nonzero defect.

Translation invariance reduces to constancy of every coefficient.
Invariance under rotations is decided by the radial reduction: a constant
symbol is O(n)-invariant exactly when each tau-slice is a polynomial in
s = |xi|^2 (for n = 1 this is evenness, since O(1) = {+-1}).  The
coefficients b_jk of p == sum b_jk |xi|^(2k) (i tau)^j prove fixedness
under every orthogonal matrix at once, and an accept carries them; one
pass over the symbol's packed monomials finds them.  A rejected symbol
is witnessed by a reflection, else by the first coordinate permutation
whose exponent relabelling changes its term map, else by the rotation
R = [3/5 -4/5; 4/5 3/5] in the (xi1, xi2) plane.  By Niven's theorem R
has infinite order, so its powers are dense in that plane's SO(2), and
a symbol fixed by R, S_n and the reflections is fixed by O(n).
Boost invariance at a fixed gauge family is decided on the radial
coefficients, the same equation q_tau = 2*lam*q_s that both classifiers
read their boost stage off (`_boost_gauge`); a reject is witnessed by p
differing at a seeded rational point and at its boosted frequency.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import TYPE_CHECKING

from . import universe
from .actions import Translation, conj_rotation, conj_translation
from .errors import InconsistencyError
from .gaussrat import ZERO, GaussianLike, GaussianRational, _make, _normal, _triple, _turn
from .lpdo import LPDO, DerivKey, laplacian_symbol, symbol_of
from .multipoly import MultiPoly, _radial_parts, _relabelling_moves, _symmetric
from .universe import _Value, random_rational

if TYPE_CHECKING:
    from .matrices import OrthogonalMatrix

_WITNESS_SEED = 39021
# Seeded points tried for a boost witness.  Their bound starts at 3 and
# doubles every 100 points, so it never passes 3*2^4 = 48.  A nonzero
# residue shows within two points on every benchmark operator; a search
# that exhausts the budget means the decider and the point test disagree.
_BOOST_ATTEMPTS = 500


class TranslationWitness(_Value):
    """A coefficient whose monomial moves under a unit shift."""

    _fields = ("key", "monomial", "shift")

    def __init__(self, key: DerivKey, monomial: tuple[int, ...], shift: Translation) -> None:
        self.key = key
        self.monomial = monomial
        self.shift = shift

    def reverify(self, op: LPDO) -> bool:
        return conj_translation(op, self.shift) != op


class RotationWitness(_Value):
    """An exact orthogonal map that fails to fix the operator."""

    _fields = ("rotation",)

    def __init__(self, rotation: OrthogonalMatrix) -> None:
        self.rotation = rotation

    def reverify(self, op: LPDO) -> bool:
        return conj_rotation(op, self.rotation) != op


class BoostWitness(_Value):
    """A concrete boost and frequency where the commutator defect is nonzero."""

    _fields = ("lam", "v", "tau", "xi")

    def __init__(
        self, lam: Fraction, v: tuple[Fraction, ...], tau: Fraction, xi: tuple[Fraction, ...]
    ) -> None:
        self.lam = lam
        self.v = v
        self.tau = tau
        self.xi = xi

    def reverify(self, op: LPDO) -> bool:
        # Re-verified through the oracle route, not the symbol route.
        from .oracle import boost_commutator_defect

        defect = boost_commutator_defect(op, self.lam, self.v)
        point: dict[str, Fraction] = {
            universe.TIME: Fraction(0),
            universe.FREQ_TIME: self.tau,
        }
        for a in range(1, op.n + 1):
            point[universe.space(a)] = Fraction(0)
            point[universe.freq_space(a)] = self.xi[a - 1]
        return bool(defect.evaluate(point))


class CheckReport(_Value):
    _fields = ("invariant", "certificate", "witness", "detail", "radial")

    def __init__(
        self,
        invariant: bool,
        certificate: str | None = None,
        witness: TranslationWitness | RotationWitness | BoostWitness | None = None,
        detail: str = "",
        radial: RadialDecomposition | None = None,
    ) -> None:
        self.invariant = invariant
        self.certificate = certificate
        self.witness = witness
        self.detail = detail
        # Set by an accepting rotation check: the exact |xi|^2 reduction.
        self.radial = radial


def check_translation_invariance(op: LPDO) -> CheckReport:
    """Invariant exactly when every coefficient polynomial is constant,
    that is when the symbol has degree 0 in (t, x)."""
    if op.is_constant_coefficient:
        return CheckReport(True, certificate="constant-coefficients")
    key = next(key for key in sorted(op.coeffs) if not op.coeffs[key].is_constant)
    poly = op.coeffs[key]
    exps = next(e for e, _ in poly.ordered_terms() if any(e))
    names = poly.variables
    moving = names[next(i for i, e in enumerate(exps) if e)]
    if moving == universe.TIME:
        shift = Translation(Fraction(1), (Fraction(0),) * op.n)
    else:
        y = [Fraction(0)] * op.n
        y[names.index(moving) - 1] = Fraction(1)
        shift = Translation(Fraction(0), tuple(y))
    return CheckReport(
        False,
        witness=TranslationWitness(key, exps, shift),
        detail=f"coefficient at dt^{key[0]} dx^{key[1]} depends on {moving}",
    )


class NotRadial(ValueError):
    """A tau-slice of the symbol is not a polynomial in |xi|^2."""


class RadialDecomposition(_Value):
    """b[(j, k)] such that the symbol equals sum b_jk |xi|^(2k) (i tau)^j.
    Left out, b is a fresh empty dict."""

    _fields = ("n", "order", "b")

    def __init__(
        self, n: int, order: int, b: dict[tuple[int, int], GaussianRational] | None = None
    ) -> None:
        self.n = n
        self.order = order
        self.b = {} if b is None else b

    def coefficient(self, j: int, k: int) -> GaussianRational:
        return self.b.get((j, k), GaussianRational())

    def reverify(self, op: LPDO) -> bool:
        return self.reconstruction() == symbol_of(op).poly

    def reconstruction(self) -> MultiPoly:
        """sum b_jk (i*tau)^j |xi|^(2k): per k, one product of a tau
        polynomial with |xi|^(2k), each power taken from the one before."""
        names, n = universe.symbol_vars(self.n), self.n
        norm2, power, total = -laplacian_symbol(n), MultiPoly.const(names, 1), MultiPoly.zero(names)
        for k in range(1 + max((k for _, k in self.b), default=-1)):
            power = power * norm2 if k else power
            tau_part = {(0,) * (n + 1) + (j,) + (0,) * n: _make(*_turn(_triple(c), j))
                        for (j, kj), c in self.b.items() if kj == k}
            total = total + power * MultiPoly(names, tau_part)
        return total


def radial_decompose(op: LPDO) -> RadialDecomposition:
    """Write each time-slice of a rotation-invariant symbol in |xi|^2 powers.

    Every part of degree 2k in xi must be an exact multiple of |xi|^(2k)
    and odd-degree parts must vanish; otherwise `NotRadial` (a ValueError)
    names the first slice that fails; b_jk is the part's xi1^(2k)
    coefficient.  A slice is the sum of its parts, so b is exact, and
    `RadialDecomposition.reverify` rebuilds the symbol from it.  The parts
    are tested in one pass over the symbol's packed monomials.
    """
    if not op.is_constant_coefficient:
        raise ValueError("radial decomposition needs constant coefficients")
    return _decompose(op, _radial_parts(symbol_of(op).poly, op.n)[0])


def _decompose(op: LPDO, parts: dict) -> RadialDecomposition:
    """The decomposition from the scanned parts of the symbol of op."""
    result = RadialDecomposition(op.n, op.order)
    for (j, degree), b in parts.items():
        if b is None:
            raise NotRadial(
                f"tau^{j} slice has a degree-{degree} part that is not a "
                "multiple of a power of |xi|^2"
            )
        result.b[(j, degree // 2)] = _make(*_turn(b._t, -j))
    return result


def _rotation_witness(op: LPDO, defect: tuple, p: MultiPoly) -> RotationWitness:
    """Turn a radial-reduction failure into a concrete non-fixing map.

    A term odd in xi_a (defect ("reflection", a)) is moved by the
    reflection of that axis.  Otherwise p is even, so a signed permutation
    moves p exactly when relabelling the exponents of p by its permutation
    changes the term map; the first such permutation of S_n after the
    identity (n <= 3) or of the swaps (1,2), (1,3), ..., (1,n) (n > 3) is
    the witness.  These swaps generate S_n, so none moving p means p is
    S_n-symmetric; once the first fails to move p, one pass over p decides
    that before the others are tried.  A symmetric p is moved by
    R = [3/5 -4/5; 4/5 3/5] in the (1, 2) plane: cos = 3/5 is rational and
    not 0, +-1/2, +-1, so R's powers are dense in that plane's SO(2)
    (Niven), which with S_n and reflections gives O(n).
    """
    from .matrices import fixed_rotation, reflection, signed_permutation

    n = op.n
    if defect[0] == "reflection":
        return RotationWitness(reflection(n, defect[1]))
    if n <= 3:
        perms = itertools.islice(itertools.permutations(range(1, n + 1)), 1, None)
    else:
        perms = ((b, *range(2, b), 1, *range(b + 1, n + 1)) for b in range(2, n + 1))
    first = next(perms)
    if not _relabelling_moves(p, first):
        # At n = 2 the first swap is the only one.
        if n == 2 or _symmetric(p, n):
            return RotationWitness(fixed_rotation(n))
        first = next(perm for perm in perms if _relabelling_moves(p, perm))
    return RotationWitness(signed_permutation(first, (1,) * n))


def check_rotation_invariance(op: LPDO) -> CheckReport:
    """Invariant exactly when every tau-slice is a polynomial in |xi|^2.

    On acceptance the report carries the `RadialDecomposition`: it proves
    the symbol fixed by every orthogonal matrix, `reverify(op)` rebuilds
    the symbol from it, and the classifiers read their coefficients from it.
    """
    if not op.is_constant_coefficient:
        raise ValueError(
            "rotation invariance needs constant coefficients; "
            "run the translation check first"
        )
    p = symbol_of(op).poly
    parts, odd_axis = _radial_parts(p, op.n)
    try:
        radial = _decompose(op, parts)
    except NotRadial as failure:
        defect = ("reflection", odd_axis) if odd_axis else ("radial",)
        return CheckReport(False, witness=_rotation_witness(op, defect, p), detail=str(failure))
    # A radial symbol is exactly one the rotation generators annihilate
    # and every reflection fixes; the certificate keeps that name.
    return CheckReport(
        True,
        certificate="generator-annihilation",
        detail="every tau-slice is a polynomial in |xi|^2",
        radial=radial,
    )


def check_boost_invariance_fixed_gauge(op: LPDO, lam: Fraction | int) -> CheckReport:
    """Invariant exactly when every gauged boost fixes the symbol p.

    The boosts (tau, xi) -> (tau - xi.v - lam|v|^2/2, xi + lam*v) form a
    connected group acting polynomially, so p is fixed exactly when the
    generators lam*d/dxi_a - xi_a*d/dtau annihilate it.  At lam = 0 that
    means p is free of tau.  At lam != 0 the boosts fix u = 2*lam*tau +
    |xi|^2 with n-dimensional orbits, so an invariant p is a polynomial in
    u and hence radial, and on p = q(tau, |xi|^2) each generator gives
    xi_a*(2*lam*q_s - q_tau): `_boost_gauge` tests q_tau = 2*lam*q_s.  The
    certificate names the zero residue p(boosted) - p this amounts to.
    """
    if not op.is_constant_coefficient:
        raise ValueError("boost invariance needs constant coefficients")
    lam = Fraction(lam)
    p = symbol_of(op).poly
    if not lam:
        invariant = not p.degree_in(universe.FREQ_TIME)
    else:
        try:
            invariant = _boost_gauge(radial_decompose(op), lam) is not None
        except NotRadial:
            invariant = False
    if invariant:
        return CheckReport(True, certificate="zero-substitution-residue")
    witness = _boost_witness(op, lam, p)
    return CheckReport(
        False,
        witness=witness,
        detail=f"residue evaluates to a nonzero value at v={witness.v}",
    )


def _boost_gauge(radial: RadialDecomposition, lam: GaussianLike | None = None):
    """The gauge lam at which q_tau = 2*lam*q_s, or None if there is none.

    With c_jk = b_jk * i^j the equation is j*c_jk = 2*lam*(k+1)*c_{j-1,k+1}
    for each j >= 1, decided on the integer triples (x, y, d) of
    (x + y*i)/d, cross-multiplied.  With no lam given, lam is derived from
    the least c_jk != 0 with j >= 1 (0 if q is free of tau); a given lam is
    only tested.
    """
    c = {key: _turn(b._t, key[0]) for key, b in radial.b.items()}
    if lam is None:
        least = min((key for key in c if key[0]), default=None)
        lam = ZERO
        if least is not None:
            j, k = least
            (x1, y1, d1), (x2, y2, d2) = c[least], c.get((j - 1, k + 1), (0, 0, 1))
            if not (x2 or y2):
                return None
            # j*c1 / (2*(k+1)*c2), the conjugate of c2 clearing the i.
            lam = _normal(j * d2 * (x1 * x2 + y1 * y2), j * d2 * (y1 * x2 - x1 * y2),
                          2 * (k + 1) * d1 * (x2 * x2 + y2 * y2))
    lr, li, ld = _triple(lam)
    # c_jk's term of q_tau and c_{j-1,k+1}'s of q_s share a key: equal key sets...
    if {(j - 1, k + 1) for j, k in c if j} != {(j, k) for j, k in c if k and (lr or li)}:
        return None
    for (j, k), (x1, y1, d1) in c.items():
        if j:
            # ...and j*c1 == 2*lam*(k+1)*c2, cross-multiplied by ld*d1*d2.
            x2, y2, d2 = c[j - 1, k + 1]
            left, right = j * ld * d2, 2 * (k + 1) * d1
            if left * x1 != right * (lr * x2 - li * y2) or left * y1 != right * (lr * y2 + li * x2):
                return None
    return lam


def _boost_witness(op: LPDO, lam: Fraction, p: MultiPoly) -> BoostWitness:
    """A seeded rational point (tau, xi, v) where p differs at (tau, xi) and
    at the boosted frequency (tau - xi.v - (lam/2)|v|^2, xi + lam*v), which
    is computed on the point's `Fraction`s."""
    n = op.n
    freq = [universe.FREQ_TIME] + [universe.freq_space(a) for a in range(1, n + 1)]
    rng = random.Random(_WITNESS_SEED)
    bound = 3
    for attempt in range(_BOOST_ATTEMPTS):
        if attempt and attempt % 100 == 0:
            bound *= 2
        point = {name: random_rational(rng, bound) for name in universe.boost_vars(n)}
        tau, *xi = (point[name] for name in freq)
        v = tuple(point[universe.boost(a)] for a in range(1, n + 1))
        moved = tau - sum(x * w for x, w in zip(xi, v)) - lam / 2 * sum(w * w for w in v)
        there = [moved] + [x + lam * w for x, w in zip(xi, v)]
        if p.evaluate(dict(zip(freq, there))) != p.evaluate(point):
            return BoostWitness(lam, v, tau, tuple(xi))
    raise InconsistencyError("nonzero residue but no witnessing point found")
