"""Rotation invariance: the radial decider against independent oracles.

The package decides rotation invariance by the radial reduction alone.
The two routes it used before live here as oracles: the infinitesimal
criterion (the generators xi_a d_b - xi_b d_a annihilate every
tau-slice, and every slice is even in each xi_a) and fixedness under a
deterministic pool of exact orthogonal matrices.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    check_rotation_invariance,
    compose_const,
    conj_rotation,
    reflection,
    symbol_of,
)
from galinv import universe
from galinv.matrices import orthogonal_witness_pool

POOL_SEED = 74511
POOL_CAYLEY = 20


def generator_criterion(op: LPDO) -> bool:
    """Generator annihilation plus reflection evenness, slice by slice."""
    n = op.n
    xi = [universe.freq_space(a) for a in range(1, n + 1)]
    for part in symbol_of(op).tau_slices().values():
        names = part.variables
        for a in range(n):
            for b in range(a + 1, n):
                gen = MultiPoly.var(names, xi[a]) * part.partial(xi[b]) - MultiPoly.var(
                    names, xi[b]
                ) * part.partial(xi[a])
                if not gen.is_zero:
                    return False
        for name in xi:
            if part.substitute({name: -MultiPoly.var(names, name)}) != part:
                return False
    return True


def fixed_by_pool(op: LPDO, cayley: int = POOL_CAYLEY) -> bool:
    """Fixed by every signed permutation and sampled rotation of the pool."""
    return all(
        conj_rotation(op, rot) == op
        for rot in orthogonal_witness_pool(op.n, POOL_SEED, cayley)
    )


def is_signed_permutation(rot) -> bool:
    return all(rot.entry(i, j) in (-1, 0, 1) for i in range(rot.n) for j in range(rot.n))


# ------------------------------------------------------------------ property

small = st.integers(-3, 3)
gaussians = st.builds(
    lambda re, im: GaussianRational(Fraction(re), Fraction(im)), small, small
)


def _laplacian_power_table(n: int, k: int) -> dict:
    op = LPDO.identity(n)
    for _ in range(k):
        op = compose_const(op, LPDO.laplacian(n))
    return op.constant_table()


@st.composite
def mixed_operators(draw) -> LPDO:
    """A radial sum c_jk Dt^j Lap^k of order <= 4, sometimes plus a few
    arbitrary derivative terms, so that both verdicts occur."""
    n = draw(st.integers(1, 3))
    table: dict = {}

    def add(key, value):
        table[key] = table.get(key, GaussianRational()) + value

    for j in range(5):
        for k in range(3):
            if j + 2 * k > 4 or not draw(st.booleans()):
                continue
            c = draw(gaussians)
            for (lj, alpha), value in _laplacian_power_table(n, k).items():
                add((lj + j, alpha), value * c)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, 4))
        alpha = tuple(draw(st.lists(st.integers(0, 4 - j), min_size=n, max_size=n)))
        assume(j + sum(alpha) <= 4)
        add((j, alpha), draw(gaussians.filter(bool)))
    assume(any(table.values()))
    return LPDO(n, table)


@settings(max_examples=30, deadline=None)
@given(mixed_operators())
def test_radial_decider_agrees_with_rotation_oracles(op):
    report = check_rotation_invariance(op)
    assert report.invariant == generator_criterion(op)
    if report.invariant:
        assert report.certificate == "generator-annihilation"
        assert report.radial.reconstruction() == symbol_of(op).poly
        assert fixed_by_pool(op)
    else:
        assert report.witness.reverify(op)


# ---------------------------------------------------------------- witnesses


def test_witness_n1_reflection():
    op = LPDO.space_derivative(1, 1, 3) + LPDO.space_derivative(1, 1, 2)
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert report.witness.rotation.entry(0, 0) == -1
    assert report.witness.reverify(op)


def test_witness_signed_permutation_blind_spot_needs_cayley():
    op = LPDO(2, {(0, (2, 2)): 1})
    assert fixed_by_pool(op, cayley=0)
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert not is_signed_permutation(report.witness.rotation)
    assert report.witness.reverify(op)


def test_witness_odd_degree_slice_in_three_dimensions():
    op = LPDO(3, {(1, (0, 1, 0)): 1}) + LPDO.laplacian(3)  # Dt*Dx2 + Lap
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert report.witness.rotation == reflection(3, 2)
    assert report.detail.startswith("tau^1 slice has a degree-1 part")
    assert report.witness.reverify(op)


def test_witness_generator_defect_in_four_dimensions():
    op = LPDO.laplacian(4) + LPDO.space_derivative(4, 3, 2).scaled(2)
    assert not generator_criterion(op)
    report = check_rotation_invariance(op)
    assert not report.invariant
    rot = report.witness.rotation
    assert any(rot.entry(i, j) for i in range(4) for j in range(4) if i != j)
    assert report.witness.reverify(op)


def test_witness_is_deterministic():
    op = LPDO(3, {(0, (2, 2, 0)): 1, (0, (0, 0, 4)): 2})
    first = check_rotation_invariance(op).witness.rotation
    second = check_rotation_invariance(op).witness.rotation
    assert first == second


# ------------------------------------------------------------- the reduction


def test_accepted_report_carries_the_reduced_symbol():
    report = check_rotation_invariance(LPDO.schrodinger_factor(3, 1))
    assert report.invariant
    # symbol(2i*Dt + Lap) = -2*tau - |xi|^2, i.e. q(tau, s) = -2*tau - s
    expected = MultiPoly(universe.RADIAL_VARS, {(1, 0): -2, (0, 1): -1})
    assert report.radial.reduced() == expected


def test_rejected_report_carries_no_reduction():
    report = check_rotation_invariance(LPDO.space_derivative(2, 1))
    assert not report.invariant
    assert report.radial is None
