"""Invariance deciders and their witnesses."""

import random
from fractions import Fraction

import pytest

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    check_translation_invariance,
    radial_decompose,
    symbol_of,
)
from galinv import universe

from conftest import random_constant_lpdo, random_variable_lpdo


def F(p, q=1):
    return Fraction(p, q)


def gr(re, im=0):
    return GaussianRational(F(re), F(im))


# ----------------------------------------------------------------- translation


def test_translation_accepts_constant(corpus):
    for name in ("schrodinger-2", "heat", "wave", "identity"):
        report = check_translation_invariance(corpus[name])
        assert report.invariant
        assert report.certificate == "constant-coefficients"


def test_translation_rejects_t_coefficient():
    names = universe.coeff_vars(1)
    op = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t")})
    report = check_translation_invariance(op)
    assert not report.invariant
    assert report.witness.key == (0, (1,))
    assert report.witness.reverify(op)


def test_translation_rejects_x_squared_identity():
    names = universe.coeff_vars(2)
    op = LPDO(2, {(0, (0, 0)): MultiPoly.var(names, "x1") ** 2 + 1})
    report = check_translation_invariance(op)
    assert not report.invariant
    assert report.witness.reverify(op)


def test_translation_witnesses_reverify_on_random_operators():
    rng = random.Random(606)
    for _ in range(20):
        n = rng.randint(1, 3)
        op = random_variable_lpdo(rng, n, rng.randint(0, 4))
        report = check_translation_invariance(op)
        assert not report.invariant
        assert report.witness.reverify(op)


# -------------------------------------------------------------------- rotation


def test_rotation_accepts_radial(corpus):
    report = check_rotation_invariance(corpus["laplacian"])
    assert report.invariant
    assert report.certificate == "generator-annihilation"


def test_rotation_rejects_single_direction():
    op = LPDO.space_derivative(2, 1, 2)  # dx1^2 in the plane
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert report.witness.reverify(op)


def test_rotation_rejects_mixed_term(corpus):
    report = check_rotation_invariance(corpus["mixed"])
    assert not report.invariant
    assert report.witness.reverify(corpus["mixed"])


def test_rotation_n1_is_evenness():
    assert check_rotation_invariance(LPDO.space_derivative(1, 1, 2)).invariant
    report = check_rotation_invariance(LPDO.space_derivative(1, 1))
    assert not report.invariant
    assert report.witness.rotation.entry(0, 0) == -1
    assert report.witness.reverify(LPDO.space_derivative(1, 1))


def test_rotation_signed_permutation_blind_spot():
    # xi1^2 * xi2^2 is fixed by every signed permutation; only a generic
    # rotation witnesses the failure.
    op = LPDO(2, {(0, (2, 2)): 1})
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert report.witness.reverify(op)


def test_rotation_rejects_variable_coefficients():
    names = universe.coeff_vars(2)
    op = LPDO(2, {(0, (1, 0)): MultiPoly.var(names, "t")})
    with pytest.raises(ValueError):
        check_rotation_invariance(op)


def test_rotation_in_four_dimensions():
    # n > 3 tries the coordinate swaps, not all of S_n, before sampled rotations
    assert check_rotation_invariance(LPDO.laplacian(4)).invariant
    report = check_rotation_invariance(LPDO.space_derivative(4, 2, 2))
    assert not report.invariant
    assert report.witness.reverify(LPDO.space_derivative(4, 2, 2))


# ---------------------------------------------------------------------- radial


def test_radial_schrodinger_table(corpus):
    rd = radial_decompose(corpus["schrodinger-2"])
    assert rd.coefficient(0, 0) == 0
    assert rd.coefficient(0, 1) == gr(-1)
    assert rd.coefficient(1, 0) == gr(0, 2)
    assert rd.coefficient(2, 0) == 0
    assert rd.reconstruction() == symbol_of(corpus["schrodinger-2"]).poly


def test_radial_biharmonic():
    from galinv import compose_const

    lap2 = compose_const(LPDO.laplacian(2), LPDO.laplacian(2))
    rd = radial_decompose(lap2)
    assert rd.coefficient(0, 2) == 1
    assert rd.coefficient(0, 1) == 0


def test_radial_identity():
    rd = radial_decompose(LPDO.identity(3))
    assert rd.b == {(0, 0): gr(1)}


def test_radial_quartic_on_the_line():
    rd = radial_decompose(LPDO.space_derivative(1, 1, 4))
    assert rd.b == {(0, 2): gr(1)}


def test_radial_reconstruction_exact_on_random_invariant_operators():
    rng = random.Random(48)
    built = 0
    while built < 15:
        n = rng.randint(1, 3)
        table = {}
        for j in range(0, 3):
            for k in range(0, 2):
                if rng.random() < 0.5:
                    table[(j, k)] = gr(rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(table.values()):
            continue
        op = _operator_from_radial_table(n, table)
        if op is None:
            continue
        built += 1
        rd = radial_decompose(op)
        assert rd.reconstruction() == symbol_of(op).poly


def _operator_from_radial_table(n, table):
    from galinv import operator_of
    from galinv.lpdo import Symbol
    from galinv.gaussrat import i_power

    names = universe.symbol_vars(n)
    norm2 = MultiPoly.zero(names)
    for a in range(1, n + 1):
        xi = MultiPoly.var(names, universe.freq_space(a))
        norm2 = norm2 + xi * xi
    tau = MultiPoly.var(names, universe.FREQ_TIME)
    poly = MultiPoly.zero(names)
    for (j, k), b in table.items():
        poly = poly + norm2**k * tau**j * (b * i_power(j))
    if poly.is_zero:
        return None
    order = max(j + 2 * k for (j, k), b in table.items() if b)
    return operator_of(Symbol(poly, n, order))


def test_radial_rejects_non_invariant():
    with pytest.raises(ValueError):
        radial_decompose(LPDO.space_derivative(2, 1))


# ----------------------------------------------------------------------- boost


def test_boost_schrodinger_standard_gauge(corpus):
    report = check_boost_invariance_fixed_gauge(corpus["schrodinger-2"], 1)
    assert report.invariant
    assert report.certificate == "zero-substitution-residue"


def test_boost_lambda_mismatch(corpus):
    report = check_boost_invariance_fixed_gauge(corpus["schrodinger-2"], 2)
    assert not report.invariant
    assert report.witness.reverify(corpus["schrodinger-2"])


def test_boost_laplacian_commutes_at_lambda_zero(corpus):
    report = check_boost_invariance_fixed_gauge(corpus["laplacian"], 0)
    assert report.invariant


def test_boost_schrodinger_not_invariant_at_lambda_zero(corpus):
    report = check_boost_invariance_fixed_gauge(corpus["schrodinger-2"], 0)
    assert not report.invariant
    assert report.witness.reverify(corpus["schrodinger-2"])


def test_boost_rejects_variable_coefficients():
    names = universe.coeff_vars(1)
    op = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t")})
    with pytest.raises(ValueError):
        check_boost_invariance_fixed_gauge(op, 1)


def test_boost_witnesses_reverify_on_random_operators():
    rng = random.Random(2718)
    found = 0
    for _ in range(40):
        n = rng.randint(1, 2)
        op = random_constant_lpdo(rng, n, rng.randint(1, 3))
        lam = F(rng.randint(1, 3), rng.randint(1, 2))
        report = check_boost_invariance_fixed_gauge(op, lam)
        if not report.invariant:
            found += 1
            assert report.witness.reverify(op)
    assert found >= 10  # random operators are essentially never invariant
