"""Galilei group conjugations: translations, rotations, gauged boosts."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    MultiPoly,
    Translation,
    boost_phase_poly,
    conj_rotation,
    conj_translation,
    gauge_phase,
    RationalMatrix,
    symbol_of,
)
from galinv import universe
from galinv.actions import QUADRATIC, X_INDEPENDENT

from reference_matrices import (
    all_signed_permutations,
    cayley_orthogonal,
    compose,
    sample_cayley_rotations,
)

from conftest import random_constant_lpdo, random_fraction
from reference_classify import conj_boost_gauge
from reference_oracle import boost_phase_poly as reference_theta, boosted_frequency

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def F(p, q=1):
    return Fraction(p, q)


def rot_2d():
    return cayley_orthogonal(RationalMatrix(((F(0), F(1, 2)), (F(-1, 2), F(0)))))


def test_translation_moves_time_coefficient():
    names = universe.coeff_vars(1)
    op = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t")})
    shifted = conj_translation(op, Translation(F(1), (F(0),)))
    expected = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t") + 1})
    assert shifted == expected
    assert shifted != op


def test_translation_fixes_constant_coefficients():
    rng = random.Random(31)
    for _ in range(10):
        op = random_constant_lpdo(rng, 2, rng.randint(0, 3))
        shift = Translation(random_fraction(rng), (random_fraction(rng),) * 2)
        assert conj_translation(op, shift) == op


def test_translation_moves_space_coefficient():
    names = universe.coeff_vars(2)
    op = LPDO(2, {(0, (0, 0)): MultiPoly.var(names, "x1")})
    moved = conj_translation(op, Translation(F(0), (F(1), F(0))))
    assert moved == LPDO(2, {(0, (0, 0)): MultiPoly.var(names, "x1") + 1})


def test_translation_group_law():
    names = universe.coeff_vars(1)
    op = LPDO(1, {(0, (1,)): MultiPoly.var(names, "t") ** 2 + MultiPoly.var(names, "x1")})
    t1 = Translation(F(1, 2), (F(2),))
    t2 = Translation(F(3), (F(-1, 3),))
    combined = Translation(t1.s + t2.s, (t1.y[0] + t2.y[0],))
    assert conj_translation(conj_translation(op, t1), t2) == conj_translation(op, combined)


def test_translation_dimension_mismatch():
    with pytest.raises(ValueError):
        conj_translation(LPDO.identity(2), Translation(F(0), (F(1),)))


def test_rotation_fixes_laplacian():
    lap = LPDO.laplacian(2)
    assert conj_rotation(lap, rot_2d()) == lap


def test_rotation_of_first_derivative():
    out = conj_rotation(LPDO.space_derivative(2, 1), rot_2d())
    expected = LPDO(2, {(0, (1, 0)): F(3, 5), (0, (0, 1)): F(4, 5)})
    assert out == expected
    # and the defining identity: symbol(out)(tau, xi) = symbol(in)(tau, R^T xi)
    p = symbol_of(LPDO.space_derivative(2, 1)).poly
    names = p.variables
    r = rot_2d()
    bindings = {
        f"xi{a}": sum(
            (MultiPoly.var(names, f"xi{b}") * r.entry(b - 1, a - 1) for b in range(1, 3)),
            MultiPoly.zero(names),
        )
        for a in range(1, 3)
    }
    assert symbol_of(out).poly == p.substitute(bindings)


def test_rotation_fixes_time_derivative():
    dt = LPDO.time_derivative(2)
    assert conj_rotation(dt, rot_2d()) == dt


def test_rotation_group_law_matches_matrix_product():
    rng = random.Random(77)
    r1, r2 = sample_cayley_rotations(3, 2, seed=5)
    for _ in range(8):
        op = random_constant_lpdo(rng, 3, rng.randint(0, 3))
        chained = conj_rotation(conj_rotation(op, r1), r2)
        assert chained == conj_rotation(op, compose(r2, r1))


def test_rotation_rejects_variable_coefficients():
    names = universe.coeff_vars(2)
    op = LPDO(2, {(0, (1, 0)): MultiPoly.var(names, "t")})
    with pytest.raises(ValueError):
        conj_rotation(op, rot_2d())


def test_boosted_frequency_at_zero_velocity():
    moved = boosted_frequency(1, F(1), v=(F(0),))
    names = universe.boost_vars(1)
    assert moved.tau == MultiPoly.var(names, "tau")
    assert moved.xi[0] == MultiPoly.var(names, "xi1")


def test_boosted_frequency_concrete_point():
    moved = boosted_frequency(1, F(1), v=(F(2),), tau=F(0), xi=(F(1),))
    assert moved.tau == -4
    assert moved.xi[0] == 3


def test_boosted_frequency_symbolic():
    moved = boosted_frequency(1, F(1))
    names = universe.boost_vars(1)
    tau = MultiPoly.var(names, "tau")
    xi1 = MultiPoly.var(names, "xi1")
    v1 = MultiPoly.var(names, "v1")
    assert moved.tau == tau - xi1 * v1 - v1**2 * F(1, 2)
    assert moved.xi[0] == xi1 + v1


def test_boosted_frequency_carries_phase_constant():
    assert boosted_frequency(1, F(1), c=F(3, 7)).phase_const == F(3, 7)
    assert boosted_frequency(1, F(1)).phase_const == 0


def test_conj_boost_gauge_schrodinger_fixed_point():
    s = LPDO.schrodinger_factor(1, 1)
    q = conj_boost_gauge(s, 1)
    p = symbol_of(s).poly.extend(universe.boost_vars(1))
    assert q == p


def test_conj_boost_gauge_laplacian_moves():
    lap = LPDO.laplacian(1)
    q = conj_boost_gauge(lap, 1)
    names = universe.boost_vars(1)
    xi1 = MultiPoly.var(names, "xi1")
    v1 = MultiPoly.var(names, "v1")
    assert q == -((xi1 + v1) ** 2)
    assert q != symbol_of(lap).poly.extend(names)


def test_conj_boost_gauge_identity():
    q = conj_boost_gauge(LPDO.identity(2), 1)
    assert q == 1


def test_conj_boost_gauge_at_zero_velocity_returns_symbol():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 3)
        op = random_constant_lpdo(rng, n, rng.randint(0, 4))
        lam = random_fraction(rng)
        q = conj_boost_gauge(op, lam, v=(F(0),) * n)
        assert q == symbol_of(op).poly.extend(universe.boost_vars(n))


def test_boost_phase_poly_zero_velocity_is_constant():
    theta = boost_phase_poly(1, F(5), 2, v=(F(0), F(0)))
    assert theta == 5


def test_boost_phase_poly_concrete():
    theta = boost_phase_poly(2, 0, 1, v=(F(1),))
    names = universe.coeff_vars(1)
    assert theta == MultiPoly.var(names, "x1") * 2 - MultiPoly.var(names, "t")


def test_boost_phase_is_real():
    theta = boost_phase_poly(F(-3, 2), F(1, 7), 3, v=(F(1, 2), F(-2), F(3)))
    assert len(theta.terms) == 5
    assert all(c.im == 0 for c in theta.terms.values())


def internals(p: MultiPoly):
    return p.variables, p._den, list(p._num.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), small.filter(bool), small, st.data())
def test_boost_phase_poly_matches_the_arithmetic_route(n, lam, c, data):
    v = data.draw(st.lists(small, min_size=n, max_size=n))
    assert internals(boost_phase_poly(lam, c, n, v=v)) == internals(reference_theta(lam, c, n, v))


# No shrinking, and a bare boolean asserted: a failure at n = 1000 is not
# worth re-running the reference dozens of times, or diffing two
# 1000-term reprs.
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(small.filter(bool), small, st.integers(0, 2**32))
def test_boost_phase_poly_matches_the_arithmetic_route_at_n_1000(lam, c, seed):
    rng = random.Random(seed)
    v = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(1000)]
    same = internals(boost_phase_poly(lam, c, 1000, v=v)) == internals(reference_theta(lam, c, 1000, v))
    assert same


@pytest.mark.parametrize("call, message", [
    (lambda: boost_phase_poly(1, 0, 3, v=(1, 2)), "v has 2 components, n = 3"),
    (lambda: boost_phase_poly(1, 0, 1, v=(1, 2)), "v has 2 components, n = 1"),
    (lambda: boosted_frequency(2, 1, v=(1,)), "v has 1 components, n = 2"),
    (lambda: boosted_frequency(2, 1, v=(1, 2), xi=(1, 2, 3)), "xi has 3 components, n = 2"),
])
def test_vectors_must_match_the_dimension(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_gauge_phase_kinds():
    assert gauge_phase(1).kind == QUADRATIC
    assert gauge_phase(0).kind == X_INDEPENDENT
    with pytest.raises(ValueError):
        boost_phase_poly(0, 0, 1, v=(1,))


def test_rotation_fixed_points_for_generator_accepted_operators(corpus):
    from galinv import check_rotation_invariance

    pool = all_signed_permutations(2) + sample_cayley_rotations(2, 5, seed=99)
    for name in ("schrodinger-2", "laplacian", "identity", "heat", "wave"):
        op = corpus[name]
        assert check_rotation_invariance(op).invariant
        for r in pool:
            assert conj_rotation(op, r) == op
