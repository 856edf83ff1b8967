"""The two classifiers, synthesis, and gauge normalization."""

import copy
import random
from fractions import Fraction

import pytest

from galinv import (
    LPDO,
    GaussianRational,
    InconsistencyError,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    check_translation_invariance,
    classify_power_form,
    classify_second_order,
    compose_const,
    normalize_gauge,
    parse_operator,
    synthesize,
)
from galinv import classify, cli
from galinv.actions import QUADRATIC, X_INDEPENDENT

import reference_gaussrat as rg
from conftest import random_constant_lpdo, random_gaussian


def F(p, q=1):
    return Fraction(p, q)


def replace(answer, **changes):
    """A copy of a (mutable) answer with some fields changed."""
    moved = copy.copy(answer)
    for name, value in changes.items():
        setattr(moved, name, value)
    return moved


def gr(re, im=0):
    return GaussianRational(F(re), F(im))


# -------------------------------------------------------------- second order


def test_accepts_schrodinger_all_dimensions():
    for n in (1, 2, 3):
        op = LPDO.schrodinger_factor(n, 1)
        verdict = classify_second_order(op)
        assert verdict.accepted and verdict.reverify(op)
        assert verdict.alpha == 1
        assert verdict.beta == 0
        assert verdict.lam == 1
        assert verdict.theta.kind == QUADRATIC and verdict.theta.lam == 1


def test_rejects_heat_with_exact_lambda(corpus):
    verdict = classify_second_order(corpus["heat"])
    assert not verdict.accepted
    assert verdict.stage == "lambda-not-real"
    assert verdict.lam_value == gr(0, F(1, 2))


def test_rejects_wave_at_a20(corpus):
    verdict = classify_second_order(corpus["wave"])
    assert not verdict.accepted
    assert verdict.stage == "a20-nonzero"


def test_rejects_anisotropic_operators(corpus):
    assert classify_second_order(corpus["mixed"]).stage == "rotation-failure"
    assert classify_second_order(corpus["dx1"]).stage == "rotation-failure"


def test_rejects_time_space_cross_derivative():
    cross = compose_const(LPDO.time_derivative(2), LPDO.space_derivative(2, 1))
    verdict = classify_second_order(cross)
    assert verdict.stage == "rotation-failure"
    assert verdict.report.witness.reverify(cross)


def test_accepts_shifted_laplacian_with_zero_lambda(corpus):
    verdict = classify_second_order(corpus["laplacian-shifted"])
    assert verdict.accepted
    assert verdict.alpha == 1
    assert verdict.beta == 3
    assert verdict.lam == 0
    assert verdict.theta.kind == X_INDEPENDENT


def test_accepts_scaled_schrodinger():
    verdict = classify_second_order(parse_operator("Dt - (1/2)i*Lap", 2))
    assert verdict.accepted
    assert verdict.alpha == gr(0, F(-1, 2))
    assert verdict.lam == 1
    assert verdict.beta == 0


def test_rejects_wrong_order(corpus):
    assert classify_second_order(corpus["identity"]).stage == "not-order-2"
    assert classify_second_order(corpus["dt"]).stage == "not-order-2"


def test_rejects_variable_coefficients():
    op = parse_operator("t*Dx1 + Lap", 2)
    verdict = classify_second_order(op)
    assert verdict.stage == "non-constant-coefficients"
    assert verdict.report.witness.reverify(op)


def test_accepted_operators_pass_all_three_checks():
    rng = random.Random(417)
    cases = [
        LPDO.schrodinger_factor(2, 1),
        LPDO.schrodinger_factor(3, F(1, 2)).scaled(gr(2, 1)),
        LPDO.laplacian(1).scaled(gr(0, 3)) + LPDO.identity(1).scaled(gr(1, 1)),
    ]
    for _ in range(5):
        lam = F(rng.randint(1, 4), rng.randint(1, 3))
        alpha = random_gaussian(rng)
        while not alpha:
            alpha = random_gaussian(rng)
        cases.append(
            LPDO.schrodinger_factor(2, lam).scaled(alpha)
            + LPDO.identity(2).scaled(random_gaussian(rng))
        )
    for op in cases:
        verdict = classify_second_order(op)
        assert verdict.accepted and verdict.reverify(op)
        assert check_translation_invariance(op).invariant
        rotation = check_rotation_invariance(op)
        assert rotation.invariant and rotation.radial.reverify(op)
        assert check_boost_invariance_fixed_gauge(op, verdict.lam).invariant


def test_completeness_against_bruteforce_boost_check():
    """classify_second_order accepts exactly when the definition does.

    For a constant-coefficient order-2 operator the only candidate gauge
    parameter is lam = -i*a10/(2*alpha); the classifier must agree with
    running the fixed-gauge boost check directly at that candidate.
    """
    rng = random.Random(90210)
    agree = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        op = random_constant_lpdo(rng, n, 2)
        if op.order != 2:
            continue
        verdict = classify_second_order(op)
        brute = _bruteforce_accepts(op)
        assert verdict.accepted == brute
        if verdict.accepted:
            # The paper's theorem, checked on the answer: the derived form
            # resynthesizes op, and op is boost invariant at the derived lam.
            assert verdict.reverify(op)
            assert check_boost_invariance_fixed_gauge(op, verdict.lam).invariant
        agree += 1
    assert agree >= 50


def _bruteforce_accepts(op) -> bool:
    from galinv import radial_decompose

    if not check_translation_invariance(op).invariant:
        return False
    if not check_rotation_invariance(op).invariant:
        return False
    try:
        rd = radial_decompose(op)
    except ValueError:
        return False
    alpha = -rd.coefficient(0, 1)
    if rd.coefficient(2, 0) or not alpha:
        return False
    lam = -rg.I_UNIT * rd.coefficient(1, 0) / (2 * rg.as_gaussian(alpha))
    if lam.im != 0:
        return False
    return check_boost_invariance_fixed_gauge(op, lam.re).invariant


# ---------------------------------------------------------------- power form


def test_schrodinger_square_power_form(corpus):
    verdict = classify_power_form(corpus["schrodinger-squared"], 1)
    assert verdict.accepted
    assert verdict.coeffs == (gr(0), gr(0), gr(1))


def test_biharmonic_rejected():
    lap2 = compose_const(LPDO.laplacian(2), LPDO.laplacian(2))
    verdict = classify_power_form(lap2, 1)
    assert verdict.stage == "residual-xi-dependence"


def test_dt_lap_rejected():
    dtlap = compose_const(LPDO.time_derivative(2), LPDO.laplacian(2))
    verdict = classify_power_form(dtlap, 1)
    assert verdict.stage == "residual-xi-dependence"


def test_residual_reject_names_the_failing_generator():
    verdict = classify_power_form(parse_operator("Lap^2", 2), 1)
    assert verdict.stage == "residual-xi-dependence"
    assert verdict.detail == (
        "the boost generator lam*d/dxi1 - xi1*d/dtau does not annihilate the symbol"
    )
    assert verdict.report is None


def test_annihilated_odd_order_symbol_fails_loudly(monkeypatch, capsys):
    # With a boost stage that accepts every lam, Dt (odd order, rotation
    # invariant) passes it: that must be an internal error (exit 3), never a
    # reject (exit 1).
    monkeypatch.setattr(classify, "_boost_gauge", lambda radial, lam=None: lam)
    with pytest.raises(InconsistencyError):
        classify_power_form(LPDO.time_derivative(2), 1)
    assert cli.main(["classifym", "Dt", "--n", "2", "--lambda", "1"]) == 3
    assert "internal error: InconsistencyError" in capsys.readouterr().err


def test_odd_order_rotation_invariant_operators_rejected():
    odd_cases = [
        LPDO.time_derivative(2),
        LPDO.time_derivative(3, 3),
        compose_const(LPDO.time_derivative(2), LPDO.laplacian(2)),
    ]
    for op in odd_cases:
        assert op.order % 2 == 1
        assert check_rotation_invariance(op).invariant
        verdict = classify_power_form(op, 1)
        assert not verdict.accepted


def test_lambda_matching():
    op = parse_operator("6i*Dt + Lap", 2)
    good = classify_power_form(op, 3)
    assert good.accepted and good.coeffs == (gr(0), gr(1))
    assert not classify_power_form(op, 1).accepted


def test_lambda_zero_is_an_error(corpus):
    with pytest.raises(ValueError):
        classify_power_form(corpus["laplacian"], 0)


def test_power_form_rejects_variable_coefficients():
    op = parse_operator("t*Dx1 + Lap", 2)
    assert classify_power_form(op, 1).stage == "non-constant-coefficients"


def test_synthesize_basic_shapes():
    assert synthesize(1, [0, 1], 2) == LPDO.schrodinger_factor(2, 1)
    assert synthesize(1, [5, 1], 2) == LPDO.schrodinger_factor(2, 1) + LPDO.identity(2).scaled(5)
    s = LPDO.schrodinger_factor(1, 1)
    assert synthesize(1, [0, 0, 1], 1) == compose_const(s, s)


def test_synthesize_input_validation():
    with pytest.raises(ValueError):
        synthesize(1, [0, 0], 1)
    with pytest.raises(ValueError):
        synthesize(1, [1, 0], 1)
    with pytest.raises(ValueError):
        synthesize(1, [], 1)


def test_synthesize_classify_roundtrip():
    rng = random.Random(808)
    for lam in (F(1), F(2), F(1, 2)):
        for top in (1, 2, 3):
            for _ in range(3):
                n = rng.randint(1, 3)
                coeffs = [random_gaussian(rng) for _ in range(top + 1)]
                while not coeffs[-1]:
                    coeffs[-1] = random_gaussian(rng)
                op = synthesize(lam, coeffs, n)
                verdict = classify_power_form(op, lam)
                assert verdict.accepted and verdict.reverify(op)
                assert list(verdict.coeffs) == coeffs


def test_second_order_and_power_form_agree():
    rng = random.Random(1234)
    for _ in range(10):
        lam = F(rng.randint(1, 3), rng.randint(1, 2))
        alpha = random_gaussian(rng)
        while not alpha:
            alpha = random_gaussian(rng)
        beta = random_gaussian(rng)
        op = LPDO.schrodinger_factor(2, lam).scaled(alpha)
        if beta:
            op = op + LPDO.identity(2).scaled(beta)
        second = classify_second_order(op)
        assert second.accepted and second.lam == lam and second.reverify(op)
        power = classify_power_form(op, lam)
        assert power.accepted and power.reverify(op)
        assert power.coeffs == (beta, alpha)


def test_accept_certificates_are_not_vacuous(corpus):
    """Each accepted answer's `reverify` fails once a coefficient moves,
    against another operator, and, for a classifier, on a reject."""
    op = LPDO.schrodinger_factor(2, 1) + LPDO.identity(2).scaled(gr(3))
    radial = check_rotation_invariance(op).radial
    second = classify_second_order(op)
    power = classify_power_form(op, 1)
    moved = [
        replace(radial, b={**radial.b, (0, 0): rg.held(rg.ONE + radial.b[(0, 0)])}),
        replace(second, alpha=rg.held(rg.ONE + second.alpha)),
        replace(power, coeffs=(rg.held(rg.ONE + power.coeffs[0]), *power.coeffs[1:])),
    ]
    other = LPDO.schrodinger_factor(2, 2)
    for answer, perturbed in zip((radial, second, power), moved):
        assert answer.reverify(op)
        assert not perturbed.reverify(op)
        assert not answer.reverify(other)
    heat, dtlap = corpus["heat"], compose_const(LPDO.time_derivative(2), LPDO.laplacian(2))
    assert not classify_second_order(heat).reverify(heat)
    assert not classify_power_form(dtlap, 1).reverify(dtlap)


# --------------------------------------------------------------------- gauge


def test_normalize_gauge_removes_beta():
    base = LPDO.schrodinger_factor(2, 1)
    for beta, real in ((gr(5), True), (gr(Fraction(-1, 3)), True), (gr(0, 1), False)):
        op = base + LPDO.identity(2).scaled(beta)
        verdict = classify_second_order(op)
        assert verdict.accepted
        result = normalize_gauge(verdict, op)
        assert result.operator == base
        assert result.real_phase is real


def test_normalize_gauge_identity_when_beta_zero():
    op = LPDO.schrodinger_factor(1, 1)
    verdict = classify_second_order(op)
    result = normalize_gauge(verdict, op)
    assert result.operator == op
    assert result.phase.is_zero
    assert result.real_phase


def test_normalize_gauge_output_reclassifies_with_zero_beta():
    op = LPDO.schrodinger_factor(2, 2).scaled(gr(3)) + LPDO.identity(2).scaled(gr(7))
    verdict = classify_second_order(op)
    result = normalize_gauge(verdict, op)
    cleaned = classify_second_order(result.operator)
    assert cleaned.accepted and cleaned.beta == 0


def test_normalize_gauge_rejects_lambda_zero(corpus):
    verdict = classify_second_order(corpus["laplacian-shifted"])
    with pytest.raises(ValueError):
        normalize_gauge(verdict, corpus["laplacian-shifted"])
