"""Acceptance suite: end-to-end criteria for the whole package.

Each test prints one pass line on success; pytest reports failures.  All
comparisons are exact (tolerance zero throughout); the only soft
thresholds are runtime budgets.
"""

import random
import time
from fractions import Fraction

from galinv import (
    LPDO,
    GaussianRational,
    boost_commutator_defect,
    check_rotation_invariance,
    check_translation_invariance,
    classify_power_form,
    classify_second_order,
    compose_const,
    conj_rotation,
    format_operator,
    normalize_gauge,
    operator_of,
    parse_operator,
    symbol_of,
    synthesize,
)
from galinv import universe
from galinv.actions import QUADRATIC, X_INDEPENDENT
from galinv.cli import theta_text

from reference_matrices import (
    RationalMatrix,
    all_signed_permutations,
    dense_matrix,
    mul,
    sample_cayley_rotations,
    transpose,
)

from conftest import random_constant_lpdo, random_fraction, random_gaussian, random_variable_lpdo
from reference_classify import conj_boost_gauge


def F(p, q=1):
    return Fraction(p, q)


def gr(re, im=0):
    return GaussianRational(F(re), F(im))


def test_criterion_1_second_order_corpus():
    started = time.perf_counter()

    for n in (1, 2, 3):
        op = parse_operator("2i*Dt + Lap", n=n)
        verdict = classify_second_order(op)
        assert verdict.accepted and verdict.reverify(op)
        assert verdict.alpha == 1 and verdict.beta == 0 and verdict.lam == 1
        assert verdict.theta.kind == QUADRATIC
        assert verdict.theta.lam == 1 and verdict.theta.c == 0
        assert theta_text(verdict.theta) == "c + v.x - (1/2)t|v|^2"

    heat = classify_second_order(parse_operator("Dt - Lap", n=2))
    assert heat.stage == "lambda-not-real"
    assert heat.lam_value == gr(0, F(1, 2))

    wave = classify_second_order(parse_operator("Dt^2 - Lap", n=2))
    assert wave.stage == "a20-nonzero"

    assert classify_second_order(parse_operator("Dx1*Dx2")).stage == "rotation-failure"
    assert classify_second_order(parse_operator("Dx1")).stage == "rotation-failure"

    shifted_op = parse_operator("Lap + 3", n=2)
    shifted = classify_second_order(shifted_op)
    assert shifted.accepted and shifted.lam == 0 and shifted.reverify(shifted_op)
    assert shifted.theta.kind == X_INDEPENDENT

    scaled_op = parse_operator("Dt - (1/2)i*Lap", n=2)
    scaled = classify_second_order(scaled_op)
    assert scaled.accepted and scaled.reverify(scaled_op)
    assert scaled.alpha == gr(0, F(-1, 2)) and scaled.lam == 1

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"second-order corpus took {elapsed:.2f}s"
    print(f"criterion 1 (second-order corpus, {elapsed:.2f}s): PASS")


def test_criterion_2_power_form_suite():
    started = time.perf_counter()
    rng = random.Random(777)

    for lam in (F(1), F(2), F(1, 2)):
        for top in (1, 2, 3):
            for _ in range(2):
                n = rng.randint(1, 3)
                coeffs = [random_gaussian(rng) for _ in range(top + 1)]
                while not coeffs[-1]:
                    coeffs[-1] = random_gaussian(rng)
                op = synthesize(lam, coeffs, n)
                verdict = classify_power_form(op, lam)
                assert verdict.accepted and verdict.reverify(op)
                assert list(verdict.coeffs) == coeffs

    lap2 = compose_const(LPDO.laplacian(2), LPDO.laplacian(2))
    assert classify_power_form(lap2, 1).stage == "residual-xi-dependence"
    dtlap = compose_const(LPDO.time_derivative(2), LPDO.laplacian(2))
    assert classify_power_form(dtlap, 1).stage == "residual-xi-dependence"

    odd_rotation_invariant = [
        LPDO.time_derivative(2),
        LPDO.time_derivative(1, 3),
        dtlap,
        compose_const(LPDO.time_derivative(3), LPDO.laplacian(3)),
    ]
    for op in odd_rotation_invariant:
        assert op.order % 2 == 1
        report = check_rotation_invariance(op)
        assert report.invariant and report.radial.reverify(op)
        assert not classify_power_form(op, 1).accepted

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"power-form suite took {elapsed:.2f}s"
    print(f"criterion 2 (power-form suite, {elapsed:.2f}s): PASS")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(424242)
    disagreements = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        lam = rng.choice([F(0), F(1), F(2), F(1, 2), F(-1)])
        residue = conj_boost_gauge(op, lam) - symbol_of(op).poly.extend(
            universe.boost_vars(n)
        )
        for _ in range(5):
            v = tuple(random_fraction(rng, 4) for _ in range(n))
            defect = boost_commutator_defect(op, lam, v)
            at_v = residue.substitute(
                {universe.boost(a): v[a - 1] for a in range(1, n + 1)}
            )
            if defect.is_zero != at_v.is_zero:
                disagreements += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s"
    print(f"criterion 3 (oracle equivalence, 250 boosts, {elapsed:.2f}s): PASS")


def test_criterion_4_rotation_machinery():
    started = time.perf_counter()
    accepted = {
        1: [LPDO.schrodinger_factor(1, 1), LPDO.laplacian(1), LPDO.identity(1)],
        2: [
            LPDO.schrodinger_factor(2, 1),
            compose_const(LPDO.schrodinger_factor(2, 1), LPDO.schrodinger_factor(2, 1)),
            LPDO.laplacian(2) + LPDO.identity(2).scaled(3),
        ],
        3: [LPDO.schrodinger_factor(3, 1), LPDO.laplacian(3)],
    }
    for n in (1, 2, 3):
        identity = RationalMatrix.identity(n)
        pool = sample_cayley_rotations(n, 20, seed=20240607) + all_signed_permutations(n)
        for rot in pool:
            assert mul(transpose(dense_matrix(rot)), dense_matrix(rot)) == identity
        for op in accepted[n]:
            report = check_rotation_invariance(op)
            assert report.invariant and report.radial.reverify(op)
            for rot in pool:
                assert conj_rotation(op, rot) == op

    skew = LPDO.space_derivative(2, 1, 2)  # dx1^2 in the plane
    pool2 = sample_cayley_rotations(2, 20, seed=20240607) + all_signed_permutations(2)
    assert any(conj_rotation(skew, rot) != skew for rot in pool2)

    elapsed = time.perf_counter() - started
    print(f"criterion 4 (rotation machinery, {elapsed:.2f}s): PASS")


def test_criterion_5_gauge_normalization():
    base = LPDO.schrodinger_factor(2, 1)
    for beta, real in ((gr(5), True), (gr(F(-1, 3)), True), (gr(0, 1), False)):
        op = base + LPDO.identity(2).scaled(beta)
        verdict = classify_second_order(op)
        assert verdict.accepted and verdict.beta == beta and verdict.reverify(op)
        result = normalize_gauge(verdict, op)
        assert result.operator == base
        assert result.real_phase is real
    print("criterion 5 (gauge normalization): PASS")


def test_criterion_6_translation_step():
    rng = random.Random(1606)
    for _ in range(20):
        n = rng.randint(1, 3)
        op = random_variable_lpdo(rng, n, rng.randint(0, 4))
        report = check_translation_invariance(op)
        assert not report.invariant
        assert report.witness is not None and report.witness.reverify(op)
    for _ in range(20):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        assert check_translation_invariance(op).invariant
    print("criterion 6 (translation step): PASS")


def test_criterion_7_round_trips(corpus):
    rng = random.Random(7707)

    def roundtrip(op):
        assert operator_of(symbol_of(op)) == op
        assert parse_operator(format_operator(op), n=op.n) == op

    for op in corpus.values():
        roundtrip(op)
    for _ in range(60):
        n = rng.randint(1, 3)
        roundtrip(random_constant_lpdo(rng, n, rng.randint(0, 4)))
    for _ in range(40):
        n = rng.randint(1, 3)
        roundtrip(random_variable_lpdo(rng, n, rng.randint(0, 4)))

    for _ in range(25):
        lam = F(rng.randint(1, 3), rng.randint(1, 2))
        n = rng.randint(1, 3)
        top = rng.randint(0, 4)
        coeffs = [random_gaussian(rng) for _ in range(top + 1)]
        while not coeffs[-1]:
            coeffs[-1] = random_gaussian(rng)
        op = synthesize(lam, coeffs, n)
        verdict = classify_power_form(op, lam)
        assert verdict.accepted and list(verdict.coeffs) == coeffs
        assert verdict.reverify(op)
    print("criterion 7 (round trips): PASS")
