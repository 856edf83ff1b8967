"""Classifiers: which operators are Galilei invariant, and in what form.

`classify_second_order` runs the full pipeline for order-2 operators:
constancy, rotation invariance with radial decomposition, vanishing of
the second time derivative and reality of the derived lam, after which
L = alpha*(2i*lam*dt + Lap) + beta exactly.  Rejections name the earliest
failed stage, so a report reads as a trace of which requirement broke first.

`classify_power_form` handles arbitrary order at a fixed lam != 0: after
the translation and rotation stages, the operator is a polynomial in the
Schrodinger factor exactly when the boost generator
lam*d/dxi_1 - xi_1*d/dtau annihilates its symbol p, that is when
p = g(2*lam*tau + |xi|^2).  Its coefficients are then read off the pure
tau terms: symbol(2i*lam*dt + Lap) = -(2*lam*tau + |xi|^2), so
a_j = [tau^j]p * (-1/(2*lam))^j.  An accepted verdict of either
classifier checks itself with `reverify(op)`, which resynthesizes the
form and compares.

Conventions: alpha is the common coefficient of the second spatial
derivatives, the only choice under which 2i*dt + Lap comes out with
lam = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import universe
from .actions import GaugePhase, gauge_phase
from .checks import (
    CheckReport,
    _boost_images,
    check_rotation_invariance,
    check_translation_invariance,
)
from .errors import InconsistencyError
from .gaussrat import GaussianLike, GaussianRational, I_UNIT, as_gaussian
from .lpdo import LPDO, Symbol, conjugate_linear_phase, linear_phase, schrodinger_symbol, symbol_of
from .multipoly import MultiPoly

STAGE_NON_CONSTANT = "non-constant-coefficients"
STAGE_ROTATION = "rotation-failure"
STAGE_A20 = "a20-nonzero"
STAGE_LAMBDA = "lambda-not-real"
STAGE_NOT_ORDER_2 = "not-order-2"
STAGE_FORBIDDEN = "forbidden-lower-term"
STAGE_RESIDUAL_XI = "residual-xi-dependence"

_ORDER2_SLOTS = {(0, 0), (0, 1), (1, 0), (2, 0)}


@dataclass
class SecondOrderVerdict:
    """Accept with the exact parameters of alpha*(2i*lam*dt+Lap)+beta, or
    reject with the earliest failed stage."""

    accepted: bool
    alpha: GaussianRational | None = None
    beta: GaussianRational | None = None
    lam: Fraction | None = None
    theta: GaugePhase | None = None
    stage: str | None = None
    lam_value: GaussianRational | None = None
    report: CheckReport | None = None
    detail: str = ""

    def reverify(self, op: LPDO) -> bool:
        return self.accepted and synthesize(self.lam, [self.beta, self.alpha], op.n) == op


@dataclass
class PowerFormVerdict:
    """Accept with coefficients a_0..a_K of sum a_j * (2i*lam*dt+Lap)^j."""

    accepted: bool
    lam: Fraction
    coeffs: tuple[GaussianRational, ...] | None = None
    stage: str | None = None
    report: CheckReport | None = None
    detail: str = ""

    def reverify(self, op: LPDO) -> bool:
        return self.accepted and synthesize(self.lam, self.coeffs, op.n) == op


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
        # Impossible: order 2 with rotation invariance and a20 = 0 forces
        # a nonzero Laplacian weight.
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
    if not next(_boost_images(p, op.n, lam)).is_zero:
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
        # p = g(2*lam*tau + |xi|^2) has even order 2*deg(g) and a_K != 0.
        raise InconsistencyError(f"annihilated symbol of order {op.order} is not a power form")
    return PowerFormVerdict(True, lam, coeffs=tuple(coeffs))


def synthesize(
    lam: Fraction | int, coeffs: Sequence[GaussianLike], n: int
) -> LPDO:
    """Build sum a_j * (2i*lam*dt + Lap)^j in the symbol ring, where composition multiplies."""
    values = [as_gaussian(c) for c in coeffs]
    if not values or not any(values):
        raise ValueError("all coefficients are zero; the operator class is empty")
    if not values[-1]:
        raise ValueError("the top coefficient a_K must be nonzero")
    factor = schrodinger_symbol(n, lam)
    power = MultiPoly.const(factor.variables, 1)
    total = MultiPoly.zero(factor.variables)
    for j, value in enumerate(values):
        if j:
            power = power * factor
        if value:
            total = total + power * value
    return LPDO._of_symbol(Symbol(total, n, total.total_degree()))


@dataclass
class GaugeNormalization:
    """Result of stripping the constant term by a linear-phase conjugation."""

    operator: LPDO
    phase: MultiPoly
    real_phase: bool


def normalize_gauge(verdict: SecondOrderVerdict, op: LPDO) -> GaugeNormalization:
    """Remove beta: exp(i*phi) L exp(-i*phi) = alpha*(2i*lam*dt + Lap).

    The conjugating phase is phi = -beta/(2*alpha*lam) * t.  It is a true
    global gauge exactly when the phase is real, which for the standard
    real alpha, lam is the statement that beta is real; otherwise the
    conjugation still removes beta but is flagged as not a gauge.
    """
    if not verdict.accepted:
        raise ValueError("gauge normalization needs an accepted verdict")
    if verdict.lam == 0:
        raise ValueError("gauge normalization does not apply when lam = 0")
    gamma = -verdict.beta / (2 * verdict.alpha * verdict.lam)
    phi = linear_phase(op.n, time_coeff=gamma)
    normalized = conjugate_linear_phase(op, phi)
    expected = LPDO.schrodinger_factor(op.n, verdict.lam).scaled(verdict.alpha)
    if normalized != expected:
        raise InconsistencyError("gauge normalization missed the target form")
    return GaugeNormalization(normalized, phi, gamma.im == 0)
