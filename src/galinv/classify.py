"""Classifiers: which operators are Galilei invariant, and in what form.

Both classifiers read the boost stage off the boost decider's own
equation, `checks._boost_gauge`, where its derivation lives.  After the
translation and rotation stages the symbol is p = q(tau, s), s = |xi|^2,
with q = sum c_jk tau^j s^k and c_jk = b_jk * i^j from the rotation
stage's `RadialDecomposition`, and p is invariant at gauge lam exactly
when q_tau = 2*lam*q_s.  A q free of tau needs lam = 0; otherwise the
least c_jk != 0 with j >= 1 fixes lam, and a zero partner coefficient
admits none.

`classify_second_order` names the earliest failed stage: at order 2
there is no lam exactly when a20 != 0, and the derived lam =
-i*a10/(2*alpha) must be real; then L = alpha*(2i*lam*dt + Lap) + beta.
`classify_power_form` tests a given lam != 0, where the equation holds
exactly when p = g(2*lam*tau + |xi|^2).  Both read the coefficients of
sum a_k * (2i*lam*dt + Lap)^k off the tau-free terms, `_power_coefficients`:
symbol(2i*lam*dt + Lap) = -(2*lam*tau + |xi|^2), so a_k = (-1)^k * b_0k,
with no lam, and (beta, alpha) = (a_0, a_1).  An accepted verdict checks
itself with `reverify(op)`, which resynthesizes the form and compares.

Conventions: alpha is the common coefficient of the second spatial
derivatives, the only choice under which 2i*dt + Lap comes out with
lam = +1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .actions import GaugePhase, gauge_phase
from .checks import (
    CheckReport,
    RadialDecomposition,
    _boost_gauge,
    check_rotation_invariance,
    check_translation_invariance,
)
from .errors import InconsistencyError
from .gaussrat import GaussianLike, GaussianRational, as_gaussian
from .lpdo import LPDO, Symbol, conjugate_linear_phase, linear_phase, schrodinger_symbol
from .multipoly import MultiPoly
from .universe import _Value

STAGE_NON_CONSTANT = "non-constant-coefficients"
STAGE_ROTATION = "rotation-failure"
STAGE_A20 = "a20-nonzero"
STAGE_LAMBDA = "lambda-not-real"
STAGE_NOT_ORDER_2 = "not-order-2"
STAGE_RESIDUAL_XI = "residual-xi-dependence"


class SecondOrderVerdict(_Value):
    """Accept with the exact parameters of alpha*(2i*lam*dt+Lap)+beta, or
    reject with the earliest failed stage."""

    _fields = (
        "accepted", "alpha", "beta", "lam", "theta", "stage", "lam_value", "report", "detail")

    def __init__(
        self,
        accepted: bool,
        alpha: GaussianRational | None = None,
        beta: GaussianRational | None = None,
        lam: Fraction | None = None,
        theta: GaugePhase | None = None,
        stage: str | None = None,
        lam_value: GaussianRational | None = None,
        report: CheckReport | None = None,
        detail: str = "",
    ) -> None:
        self.accepted = accepted
        self.alpha = alpha
        self.beta = beta
        self.lam = lam
        self.theta = theta
        self.stage = stage
        self.lam_value = lam_value
        self.report = report
        self.detail = detail

    def reverify(self, op: LPDO) -> bool:
        return self.accepted and synthesize(self.lam, [self.beta, self.alpha], op.n) == op


class PowerFormVerdict(_Value):
    """Accept with coefficients a_0..a_K of sum a_j * (2i*lam*dt+Lap)^j."""

    _fields = ("accepted", "lam", "coeffs", "stage", "report", "detail")

    def __init__(
        self,
        accepted: bool,
        lam: Fraction,
        coeffs: tuple[GaussianRational, ...] | None = None,
        stage: str | None = None,
        report: CheckReport | None = None,
        detail: str = "",
    ) -> None:
        self.accepted = accepted
        self.lam = lam
        self.coeffs = coeffs
        self.stage = stage
        self.report = report
        self.detail = detail

    def reverify(self, op: LPDO) -> bool:
        return self.accepted and synthesize(self.lam, self.coeffs, op.n) == op


def _radial_or_reject(op: LPDO, reject: Callable):
    """The rotation stage's radial decomposition of op, or `reject` called
    with the stage, report and detail of the first failed check."""
    translation = check_translation_invariance(op)
    if not translation.invariant:
        return reject(stage=STAGE_NON_CONSTANT, report=translation, detail=translation.detail)
    rotation = check_rotation_invariance(op)
    if not rotation.invariant:
        return reject(stage=STAGE_ROTATION, report=rotation, detail=rotation.detail)
    return rotation.radial


def classify_second_order(op: LPDO) -> SecondOrderVerdict:
    radial = _radial_or_reject(op, partial(SecondOrderVerdict, False))
    if isinstance(radial, SecondOrderVerdict):
        return radial
    if op.order != 2:
        return SecondOrderVerdict(
            False, stage=STAGE_NOT_ORDER_2, detail=f"effective order is {op.order}"
        )
    lam_value = _boost_gauge(radial)
    if lam_value is None:
        return SecondOrderVerdict(
            False, stage=STAGE_A20,
            detail=f"second time derivative has weight {radial.coefficient(2, 0)}",
        )
    if lam_value.im != 0:
        return SecondOrderVerdict(False, stage=STAGE_LAMBDA, lam_value=lam_value,
                                  detail=f"derived lam = {lam_value} is not real")
    (beta, alpha), lam = _power_coefficients(radial, 1), lam_value.re
    return SecondOrderVerdict(
        True, alpha=alpha, beta=beta, lam=lam, theta=gauge_phase(lam), lam_value=lam_value
    )


def classify_power_form(op: LPDO, lam: Fraction | int) -> PowerFormVerdict:
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("the fixed-gauge classification requires lam != 0")
    radial = _radial_or_reject(op, partial(PowerFormVerdict, False, lam))
    if isinstance(radial, PowerFormVerdict):
        return radial
    if _boost_gauge(radial, lam) is None:
        return PowerFormVerdict(
            False, lam, stage=STAGE_RESIDUAL_XI,
            detail="the boost generator lam*d/dxi1 - xi1*d/dtau does not annihilate the symbol",
        )
    coeffs = _power_coefficients(radial, op.order // 2)
    if op.order % 2 or not coeffs[-1]:
        # p = g(2*lam*tau + |xi|^2) has even order 2*deg(g) and a_K != 0.
        raise InconsistencyError(f"annihilated symbol of order {op.order} is not a power form")
    return PowerFormVerdict(True, lam, coeffs=tuple(coeffs))


def _power_coefficients(radial: RadialDecomposition, top: int) -> list[GaussianRational]:
    """a_0..a_top of sum a_k * (2i*lam*dt + Lap)^k, read off the tau-free
    radial coefficients: a_k = (-1)^k * b_0k, whatever lam."""
    return [-radial.coefficient(0, k) if k % 2 else radial.coefficient(0, k) for k in range(top + 1)]


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


class GaugeNormalization(_Value):
    """Result of stripping the constant term by a linear-phase conjugation."""

    _fields = ("operator", "phase", "real_phase")

    def __init__(self, operator: LPDO, phase: MultiPoly, real_phase: bool) -> None:
        self.operator = operator
        self.phase = phase
        self.real_phase = real_phase


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
