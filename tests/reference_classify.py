"""The boost-stage routes of the classifiers and the boost check, kept as references.

The package derives lam once, from the radial coefficients, and both
classifiers read their last stages off that derivation.  The routes it
replaced live here unchanged:

- `classify_second_order` reads the four order-2 slots of the radial
  decomposition, rejects any other slot as `forbidden-lower-term` (a stage
  no order-2 operator reaches, since j + 2k <= 2 leaves only those four),
  tests a20, and computes lam = -i*a10/(2*alpha) itself, with an internal
  error for alpha = 0;
- `classify_power_form` applies the first boost generator
  lam*d/dxi1 - xi1*d/dtau to the whole symbol polynomial and reads the
  coefficients off the pure tau terms of the symbol.

The tests require both routes to give the same verdict, field by field.

`boost_images` is the route `check_boost_invariance_fixed_gauge` decided
on before it moved onto the radial gauge equation: it builds the n
generator images (lam*d/dxi_a - xi_a*d/dtau) p of the whole symbol, and
`boost_invariant` accepts exactly when every image is zero.

`boost_gauge` is the package's `_boost_gauge` before it decided the
equation q_tau = 2*lam*q_s on integer triples: it builds c_jk, q_tau and
q_s as `GaussianRational` dicts and compares them.  The tests require the
two to return equal values of the same type on every decomposition.

`conj_boost_gauge` is the oldest boost route: it substitutes the boosted
frequency of `reference_oracle.boosted_frequency` into the whole symbol,
and an operator is invariant exactly when the residue q - p is the zero
polynomial in (tau, xi, v).  The decider, the generator images and the
differentiation oracle are each compared against that residue.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from galinv import universe
from galinv.actions import gauge_phase
from galinv.checks import (
    RadialDecomposition,
    check_rotation_invariance,
    check_translation_invariance,
)
from galinv.classify import (
    STAGE_A20,
    STAGE_LAMBDA,
    STAGE_NON_CONSTANT,
    STAGE_NOT_ORDER_2,
    STAGE_RESIDUAL_XI,
    STAGE_ROTATION,
    PowerFormVerdict,
    SecondOrderVerdict,
)
from galinv.errors import InconsistencyError
from galinv.gaussrat import I_UNIT, GaussianLike, GaussianRational, i_power
from galinv.lpdo import LPDO, symbol_of
from galinv.multipoly import MultiPoly

from reference_oracle import boosted_frequency

STAGE_FORBIDDEN = "forbidden-lower-term"

_ORDER2_SLOTS = {(0, 0), (0, 1), (1, 0), (2, 0)}


def classify_second_order(op: LPDO) -> SecondOrderVerdict:
    translation = check_translation_invariance(op)
    if not translation.invariant:
        return SecondOrderVerdict(
            False, stage=STAGE_NON_CONSTANT, report=translation,
            detail=translation.detail,
        )
    rotation = check_rotation_invariance(op)
    if not rotation.invariant:
        return SecondOrderVerdict(
            False, stage=STAGE_ROTATION, report=rotation, detail=rotation.detail
        )
    if op.order != 2:
        return SecondOrderVerdict(
            False, stage=STAGE_NOT_ORDER_2, detail=f"effective order is {op.order}"
        )
    radial = rotation.radial
    extra = [key for key in radial.b if key not in _ORDER2_SLOTS]
    if extra:
        return SecondOrderVerdict(
            False, stage=STAGE_FORBIDDEN, detail=f"unexpected radial terms {extra}"
        )
    beta = radial.coefficient(0, 0)
    alpha = -radial.coefficient(0, 1)
    a10 = radial.coefficient(1, 0)
    a20 = radial.coefficient(2, 0)
    if a20:
        return SecondOrderVerdict(
            False, stage=STAGE_A20, detail=f"second time derivative has weight {a20}"
        )
    if not alpha:
        raise InconsistencyError("order-2 pipeline reached lam with alpha = 0")
    lam_value = -I_UNIT * a10 / (2 * alpha)
    if lam_value.im != 0:
        return SecondOrderVerdict(
            False,
            stage=STAGE_LAMBDA,
            lam_value=lam_value,
            detail=f"derived lam = {lam_value} is not real",
        )
    lam = lam_value.re
    return SecondOrderVerdict(
        True, alpha=alpha, beta=beta, lam=lam, theta=gauge_phase(lam), lam_value=lam_value
    )


def classify_power_form(op: LPDO, lam: Fraction | int) -> PowerFormVerdict:
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("the fixed-gauge classification requires lam != 0")
    translation = check_translation_invariance(op)
    if not translation.invariant:
        return PowerFormVerdict(
            False, lam, stage=STAGE_NON_CONSTANT, report=translation,
            detail=translation.detail,
        )
    rotation = check_rotation_invariance(op)
    if not rotation.invariant:
        return PowerFormVerdict(
            False, lam, stage=STAGE_ROTATION, report=rotation, detail=rotation.detail
        )
    # On a radial p = q(tau, |xi|^2) every generator image equals
    # xi_a*(2*lam*q_s - q_tau), so the first vanishes exactly when all do.
    p = symbol_of(op).poly
    if not next(boost_images(p, op.n, lam)).is_zero:
        return PowerFormVerdict(
            False,
            lam,
            stage=STAGE_RESIDUAL_XI,
            detail="the boost generator lam*d/dxi1 - xi1*d/dtau does not annihilate the symbol",
        )
    tau = p.variables.index(universe.FREQ_TIME)
    scale = Fraction(-1, 2) / lam
    coeffs = [
        p.coefficient(tuple(j if i == tau else 0 for i in range(len(p.variables)))) * scale**j
        for j in range(op.order // 2 + 1)
    ]
    if op.order % 2 or not coeffs[-1]:
        raise InconsistencyError(f"annihilated symbol of order {op.order} is not a power form")
    return PowerFormVerdict(True, lam, coeffs=tuple(coeffs))


def boost_gauge(radial: RadialDecomposition, lam: GaussianLike | None = None):
    """The gauge lam at which q_tau = 2*lam*q_s, or None if there is none.

    With no lam given, lam is derived from the least c_jk != 0 with j >= 1
    (0 if q is free of tau); a given lam is only tested.
    """
    c = {(j, k): b * i_power(j) for (j, k), b in radial.b.items()}
    if lam is None:
        least = min((key for key in c if key[0]), default=None)
        lam = GaussianRational()
        if least is not None:
            j, k = least
            partner = c.get((j - 1, k + 1))
            if not partner:
                return None
            lam = j * c[least] / (2 * (k + 1) * partner)
    q_tau = {(j - 1, k): j * v for (j, k), v in c.items() if j}
    q_s = {(j, k - 1): 2 * lam * k * v for (j, k), v in c.items() if k and lam}
    return lam if q_tau == q_s else None


def boost_images(p: MultiPoly, n: int, lam: Fraction) -> Iterator[MultiPoly]:
    """(lam*d/dxi_a - xi_a*d/dtau) p for a = 1..n, built one at a time."""
    dtau = p.partial(universe.FREQ_TIME)
    for a in range(1, n + 1):
        xi = universe.freq_space(a)
        yield p.partial(xi) * lam - MultiPoly.var(p.variables, xi) * dtau


def boost_invariant(op: LPDO, lam: Fraction | int) -> bool:
    """Every boost generator annihilates the symbol of op."""
    return all(image.is_zero for image in boost_images(symbol_of(op).poly, op.n, Fraction(lam)))


def conj_boost_gauge(op: LPDO, lam: Fraction | int, v=None) -> MultiPoly:
    """Symbol of the boost-and-gauge conjugated operator, q(tau, xi, v).

    q is the symbol composed with the boosted frequency; with lam = 0 this
    degenerates to the pure boost pull-back q = p(tau - xi.v, xi).
    """
    if not op.is_constant_coefficient:
        raise ValueError("boost conjugation is restricted to constant coefficients")
    moved = boosted_frequency(op.n, lam, v=v)
    bindings = {universe.FREQ_TIME: moved.tau}
    for a in range(1, op.n + 1):
        bindings[universe.freq_space(a)] = moved.xi[a - 1]
    return symbol_of(op).poly.extend(universe.boost_vars(op.n)).substitute(bindings)
