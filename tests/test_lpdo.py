"""Operators, symbols, plane waves, composition, and phase conjugation."""

import random
from fractions import Fraction

import pytest

from galinv import (
    LPDO,
    MAX_DIMENSION,
    GaussianRational,
    I_UNIT,
    MultiPoly,
    compose_const,
    conjugate_linear_phase,
    linear_phase,
    operator_of,
    symbol_of,
)
from galinv import universe

from conftest import random_constant_lpdo, random_fraction, random_variable_lpdo
from reference_oracle import apply_plane_wave


def sym_poly(n):
    return universe.symbol_vars(n)


def test_symbol_of_schrodinger_n2():
    p = symbol_of(LPDO.schrodinger_factor(2, 1)).poly
    names = sym_poly(2)
    tau = MultiPoly.var(names, "tau")
    xi1 = MultiPoly.var(names, "xi1")
    xi2 = MultiPoly.var(names, "xi2")
    assert p == tau * -2 - xi1**2 - xi2**2


def test_symbol_of_identity():
    assert symbol_of(LPDO.identity(3)).poly == 1


def test_symbol_of_variable_coefficient():
    names = universe.coeff_vars(1)
    t_dx = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t")})
    p = symbol_of(t_dx).poly
    full = sym_poly(1)
    assert p == MultiPoly.var(full, "t") * MultiPoly.var(full, "xi1") * I_UNIT


def test_operator_of_inverts_symbol():
    s = LPDO.schrodinger_factor(2, 1)
    assert operator_of(symbol_of(s)) == s
    assert operator_of(symbol_of(LPDO.identity(2))) == LPDO.identity(2)
    dx1 = LPDO.space_derivative(2, 1)
    assert operator_of(symbol_of(dx1)) == dx1


def test_symbol_roundtrip_random():
    rng = random.Random(4821)
    for _ in range(60):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        assert operator_of(symbol_of(op)) == op
    for _ in range(40):
        n = rng.randint(1, 3)
        op = random_variable_lpdo(rng, n, rng.randint(0, 4))
        assert operator_of(symbol_of(op)) == op


def test_apply_plane_wave_symbolic():
    wave = apply_plane_wave(LPDO.space_derivative(2, 1))
    names = sym_poly(2)
    assert wave.amplitude == MultiPoly.var(names, "xi1") * I_UNIT
    expected_phase = (
        MultiPoly.var(names, "tau") * MultiPoly.var(names, "t")
        + MultiPoly.var(names, "xi1") * MultiPoly.var(names, "x1")
        + MultiPoly.var(names, "xi2") * MultiPoly.var(names, "x2")
    )
    assert wave.phase == expected_phase


def test_apply_plane_wave_concrete():
    wave = apply_plane_wave(LPDO.schrodinger_factor(2, 1), tau=1, xi=(1, 1))
    assert wave.amplitude == -4
    assert apply_plane_wave(LPDO.identity(2), tau=0, xi=(0, 0)).amplitude == 1


def test_plane_wave_law_matches_symbol_evaluation():
    rng = random.Random(911)
    for _ in range(25):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        tau = random_fraction(rng)
        xi = tuple(random_fraction(rng) for _ in range(n))
        wave = apply_plane_wave(op, tau=tau, xi=xi)
        point = {"tau": tau}
        point.update({f"xi{a}": xi[a - 1] for a in range(1, n + 1)})
        assert wave.amplitude.constant_value() == symbol_of(op).poly.evaluate(point)


def test_compose_const_examples():
    lap1 = LPDO.laplacian(1)
    assert compose_const(lap1, lap1) == LPDO.space_derivative(1, 1, 4)
    s = LPDO.schrodinger_factor(1, 1)
    squared = compose_const(s, s)
    expected = LPDO(
        1,
        {
            (2, (0,)): -4,
            (1, (2,)): GaussianRational(Fraction(0), Fraction(4)),
            (0, (4,)): 1,
        },
    )
    assert squared == expected
    assert compose_const(LPDO.identity(1), lap1) == lap1


def test_compose_const_symbol_multiplicativity():
    rng = random.Random(5150)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_constant_lpdo(rng, n, rng.randint(0, 2))
        b = random_constant_lpdo(rng, n, rng.randint(0, 2))
        assert symbol_of(compose_const(a, b)).poly == symbol_of(a).poly * symbol_of(b).poly


def test_compose_const_rejects_variable_coefficients():
    names = universe.coeff_vars(1)
    t_op = LPDO(1, {(0, (0,)): MultiPoly.var(names, "t")})
    with pytest.raises(ValueError):
        compose_const(t_op, LPDO.identity(1))


def test_conjugate_linear_phase_time_shift():
    # exp(i*g*t) dt exp(-i*g*t) = dt - i*g
    op = LPDO.time_derivative(1)
    phi = linear_phase(1, time_coeff=Fraction(3, 2))
    out = conjugate_linear_phase(op, phi)
    expected = op + LPDO.identity(1).scaled(
        GaussianRational(Fraction(0), Fraction(-3, 2))
    )
    assert out == expected


def test_conjugate_zero_phase_is_identity():
    op = LPDO.schrodinger_factor(2, 1)
    assert conjugate_linear_phase(op, linear_phase(2)) == op


def test_conjugate_removes_constant_term():
    # alpha(2i lam dt + Lap) + beta conjugates back to alpha(2i lam dt + Lap)
    alpha = GaussianRational(Fraction(2), Fraction(1))
    beta = GaussianRational(Fraction(5), Fraction(0))
    lam = Fraction(1)
    base = LPDO.schrodinger_factor(2, lam).scaled(alpha)
    op = base + LPDO.identity(2).scaled(beta)
    gamma = -beta / (2 * alpha * lam)
    out = conjugate_linear_phase(op, linear_phase(2, time_coeff=gamma))
    assert out == base


def test_conjugate_then_inverse_phase_is_identity():
    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(1, 2)
        op = random_constant_lpdo(rng, n, rng.randint(0, 3))
        phi = linear_phase(
            n,
            constant=random_fraction(rng),
            time_coeff=random_fraction(rng),
            space_coeffs=[random_fraction(rng) for _ in range(n)],
        )
        assert conjugate_linear_phase(conjugate_linear_phase(op, phi), -phi) == op


def test_conjugate_rejects_quadratic_phase():
    names = universe.coeff_vars(1)
    quadratic = MultiPoly.var(names, "t") ** 2
    with pytest.raises(ValueError):
        conjugate_linear_phase(LPDO.identity(1), quadratic)


def test_effective_order_normalization():
    # A declared top-order key with zero coefficient drops out.
    op = LPDO(1, {(2, (0,)): 0, (0, (1,)): 1})
    assert op.order == 1


def test_dimension_over_the_cap_rejected():
    cap = f"spatial dimension {MAX_DIMENSION + 1} exceeds the cap of {MAX_DIMENSION}"
    with pytest.raises(ValueError, match=cap):
        LPDO(MAX_DIMENSION + 1, {(1, (0,) * (MAX_DIMENSION + 1)): 1})
    with pytest.raises(ValueError, match=cap):
        LPDO.laplacian(MAX_DIMENSION + 1)
    assert LPDO.identity(MAX_DIMENSION).n == MAX_DIMENSION


def test_zero_operator_rejected():
    with pytest.raises(ValueError):
        LPDO(1, {(0, (0,)): 0})


def test_exact_cancellation_is_the_zero_operator():
    zero = "^the zero operator is outside the class: no top-order coefficient$"
    op = random_variable_lpdo(random.Random(47), 2, 3)
    with pytest.raises(ValueError, match=zero):
        op + (-1) * op


def test_scaled_by_zero_rejected():
    with pytest.raises(ValueError):
        LPDO.identity(1).scaled(0)


def test_builder_refuses_symbol_over_the_degree_cap():
    cap = "term degree 70 exceeds the cap of 64"
    with pytest.raises(ValueError, match=cap):
        LPDO.time_derivative(1, 70)
    with pytest.raises(ValueError, match=cap):
        LPDO.space_derivative(2, 2, 70)
    # The coefficient's own degree counts: t^10 * dt^60 has symbol degree 70.
    t = MultiPoly.var(universe.coeff_vars(1), "t")
    with pytest.raises(ValueError, match=cap):
        LPDO(1, {(60, (0,)): t**10, (0, (0,)): 1})
    with pytest.raises(ValueError, match=cap):
        compose_const(LPDO.time_derivative(1, 35), LPDO.time_derivative(1, 35))
    at_cap = LPDO(1, {(60, (0,)): t**4})
    assert symbol_of(at_cap).poly.total_degree() == 64


def test_no_decider_sees_an_operator_over_the_cap():
    from galinv import (
        check_boost_invariance_fixed_gauge,
        check_rotation_invariance,
        check_translation_invariance,
    )

    # The builder raises before any decider runs; an operator at the cap
    # has a symbol, and every decider answers it.
    with pytest.raises(ValueError, match="exceeds the cap"):
        check_translation_invariance(LPDO.time_derivative(1, 70))
    top = LPDO.time_derivative(1, 64)
    assert check_translation_invariance(top).invariant
    assert check_rotation_invariance(top).invariant
    assert not check_boost_invariance_fixed_gauge(top, 1).invariant
    assert symbol_of(top).order == 64


def test_constancy_is_scanned_once_per_operator(monkeypatch):
    rng = random.Random(11)
    ops = [random_constant_lpdo(rng, 2, 3), random_variable_lpdo(rng, 2, 2), LPDO.laplacian(3)]
    # The reference reads the coefficients, never the held symbol.
    expected = [all(poly.is_constant for poly in op.coeffs.values()) for op in ops]
    assert expected == [True, False, True]
    assert [op.is_constant_coefficient for op in ops] == expected

    def refuse(*args):
        raise AssertionError("constancy scanned twice")

    monkeypatch.setattr(MultiPoly, "degree_in", refuse)
    assert [op.is_constant_coefficient for op in ops] == expected
