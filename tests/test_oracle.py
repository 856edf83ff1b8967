"""The brute-force differentiation route and its agreement with symbols."""

import random
from fractions import Fraction

from galinv import (
    LPDO,
    ExpWave,
    I_UNIT,
    MultiPoly,
    apply_lpdo,
    boost_commutator_defect,
    boost_phase_poly,
    plane_wave,
    symbol_of,
)
from galinv import universe

from conftest import random_constant_lpdo, random_fraction, random_poly, random_variable_lpdo
from reference_classify import conj_boost_gauge
from reference_oracle import apply_plane_wave, differentiate_expwave, substitute, with_phase_added


def F(p, q=1):
    return Fraction(p, q)


def test_differentiate_plane_wave_once():
    out = differentiate_expwave(plane_wave(1), space_orders=(1,))
    names = universe.symbol_vars(1)
    assert out.amplitude == MultiPoly.var(names, "xi1") * I_UNIT
    assert out.phase == plane_wave(1).phase


def test_differentiate_gauged_wave():
    # d/dx1 of exp(i(theta_v + tau t + xi.(x - t v))) has amplitude i(v1 + xi1)
    n = 1
    names = universe.symbol_vars(n)
    v = (F(1),)
    theta = boost_phase_poly(1, 0, n, v=v).extend(names)
    shift = {"x1": MultiPoly.var(names, "x1") - MultiPoly.var(names, "t") * v[0]}
    wave = with_phase_added(substitute(plane_wave(n), shift), theta)
    out = differentiate_expwave(wave, space_orders=(1,))
    assert out.amplitude == (MultiPoly.var(names, "xi1") + 1) * I_UNIT


def test_differentiate_polynomial_amplitude():
    names = universe.symbol_vars(1)
    wave = ExpWave(MultiPoly.var(names, "t"), MultiPoly.zero(names))
    out = differentiate_expwave(wave, time_order=1)
    assert out.amplitude == 1


def test_mixed_partials_commute():
    rng = random.Random(5)
    names = universe.symbol_vars(2)
    for _ in range(10):
        amplitude = random_poly(rng, names, max_terms=3, max_degree=2)
        phase_terms = {
            exps: Fraction(rng.randint(-3, 3))
            for exps, _ in random_poly(rng, names, 3, 2).terms.items()
        }
        wave = ExpWave(amplitude, MultiPoly(names, phase_terms))
        ab = differentiate_expwave(differentiate_expwave(wave, space_orders=(1, 0)), space_orders=(0, 1))
        ba = differentiate_expwave(differentiate_expwave(wave, space_orders=(0, 1)), space_orders=(1, 0))
        assert ab == ba


def test_oracle_reproduces_plane_wave_application():
    rng = random.Random(66)
    for _ in range(25):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        direct = apply_lpdo(op, plane_wave(n))
        through_symbol = apply_plane_wave(op)
        assert direct == through_symbol


def test_defect_zero_for_schrodinger():
    s = LPDO.schrodinger_factor(2, 1)
    for v in ((F(1), F(0)), (F(-2), F(1, 3)), (F(1, 2), F(5))):
        assert boost_commutator_defect(s, 1, v, c=F(1, 7)).is_zero


def test_defect_nonzero_for_laplacian():
    d = boost_commutator_defect(LPDO.laplacian(2), 1, (F(1), F(0)))
    assert not d.is_zero


def test_defect_zero_for_identity():
    assert boost_commutator_defect(LPDO.identity(1), 1, (F(3),)).is_zero


def test_defect_zero_for_laplacian_at_lambda_zero():
    assert boost_commutator_defect(LPDO.laplacian(2), 0, (F(2), F(-1))).is_zero


def test_oracle_agrees_with_symbol_route():
    """The two independent code paths decide the same boosts, exactly."""
    rng = random.Random(10101)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        lam = F(rng.randint(-2, 2), rng.randint(1, 2))
        residue_sym = conj_boost_gauge(op, lam) - symbol_of(op).poly.extend(
            universe.boost_vars(n)
        )
        for _ in range(3):
            v = tuple(random_fraction(rng, 3) for _ in range(n))
            defect = boost_commutator_defect(op, lam, v)
            bindings = {universe.boost(a): v[a - 1] for a in range(1, n + 1)}
            residue_at_v = residue_sym.substitute(bindings)
            assert defect.is_zero == residue_at_v.is_zero
            checked += 1
    assert checked == 90


def test_oracle_agrees_with_boost_checker_on_corpus(corpus):
    from galinv import check_boost_invariance_fixed_gauge

    rng = random.Random(321)
    for op in corpus.values():
        if not op.is_constant_coefficient:
            continue
        for lam in (F(0), F(1), F(2)):
            report = check_boost_invariance_fixed_gauge(op, lam)
            for _ in range(3):
                v = tuple(random_fraction(rng, 3) for _ in range(op.n))
                defect = boost_commutator_defect(op, lam, v)
                if report.invariant:
                    assert defect.is_zero
    # the converse direction: a failing check means some boost has a defect
    fail = check_boost_invariance_fixed_gauge(LPDO.laplacian(2), 1)
    assert not fail.invariant
    assert not boost_commutator_defect(LPDO.laplacian(2), 1, fail.witness.v).is_zero


def _per_key_sum(op, wave):
    names = wave.variables
    total = MultiPoly.zero(names)
    for (j, alpha), poly in op.coeffs.items():
        piece = differentiate_expwave(wave, j, alpha)
        total = total + poly.extend(names) * piece.amplitude
    return ExpWave(total, wave.phase)


def _gauged_wave(n, lam, v, c):
    """The pulled-back, gauge-shifted wave of `boost_commutator_defect`."""
    names = universe.symbol_vars(n)
    theta = boost_phase_poly(lam, c, n, v=v).extend(names)
    t = MultiPoly.var(names, "t")
    shift = {
        universe.space(a): MultiPoly.var(names, universe.space(a)) - t * v[a - 1]
        for a in range(1, n + 1)
    }
    return with_phase_added(substitute(plane_wave(n), shift), theta)


def test_chain_reuse_matches_per_key_differentiation():
    """apply_lpdo shares derivative prefixes across keys; the result must be
    the per-key sum, whatever order the keys were given in."""
    rng = random.Random(4471)
    for trial in range(24):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        if trial % 2:
            op = random_variable_lpdo(rng, n, order)
        else:
            op = random_constant_lpdo(rng, n, order)
        # Rebuild with the keys in reverse sorted order.
        op = LPDO(n, dict(sorted(op.coeffs.items(), reverse=True)))
        lam = F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
        v = tuple(random_fraction(rng, 3) for _ in range(n))
        for wave in (plane_wave(n), _gauged_wave(n, lam, v, random_fraction(rng))):
            assert apply_lpdo(op, wave) == _per_key_sum(op, wave)
