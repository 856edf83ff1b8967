"""Rotation invariance: the radial decider against independent oracles.

The package decides rotation invariance by the radial reduction alone.
The two routes it used before live here as oracles: the infinitesimal
criterion (the generators xi_a d_b - xi_b d_a annihilate every
tau-slice, and every slice is even in each xi_a) and fixedness under a
deterministic pool of exact orthogonal matrices.  The same pool, walked
with a point test at every matrix, is the reference witness search.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    check_rotation_invariance,
    compose_const,
    conj_rotation,
    parse_operator,
    reflection,
    signed_permutation,
    symbol_of,
)
from galinv import checks, universe
from galinv.checks import RotationWitness
from galinv.matrices import all_signed_permutations, iter_cayley_rotations
from galinv.oracle import random_rational

import reference_symbols as ref

POOL_SEED = 74511
POOL_CAYLEY = 20


def orthogonal_witness_pool(n: int, seed: int, cayley_count: int = 20):
    """Signed permutations followed by sampled rotations, deterministically.

    For n <= 3 the signed permutations are enumerated exhaustively; beyond
    that only reflections and coordinate swaps are included to keep the
    pool small.
    """
    if n <= 3:
        yield from all_signed_permutations(n)
    else:
        for axis in range(1, n + 1):
            yield reflection(n, axis)
        base = list(range(1, n + 1))
        for a in range(n):
            for b in range(a + 1, n):
                perm = base.copy()
                perm[a], perm[b] = perm[b], perm[a]
                yield signed_permutation(perm, (1,) * n)
    yield from itertools.islice(iter_cayley_rotations(n, seed), cayley_count)


def reference_rotation_witness(op: LPDO):
    """(index, matrix): the first matrix of the package's witness pool,
    then of its longer sampled stream, that moves p at a seeded point."""
    n = op.n
    p = symbol_of(op).poly
    names = [universe.FREQ_TIME] + [universe.freq_space(a) for a in range(1, n + 1)]
    rng = random.Random(checks._WITNESS_SEED)
    candidates = itertools.chain(
        orthogonal_witness_pool(n, checks._WITNESS_SEED, checks._WITNESS_CAYLEY),
        itertools.islice(
            iter_cayley_rotations(n, checks._WITNESS_SEED + 1), checks._WITNESS_EXTRA
        ),
    )
    for index, rot in enumerate(candidates):
        tau, *xi = (random_rational(rng, 3) for _ in range(n + 1))
        here = dict(zip(names, [tau, *xi]))
        there = dict(zip(names, [tau, *rot.matrix.transpose().apply(xi)]))
        if p.evaluate(here) != p.evaluate(there):
            return index, rot
    return None


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
        assert report.radial.reverify(op)
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
    op = LPDO(2, {(0, (2, 2)): 1})  # Dx1^2*Dx2^2
    assert fixed_by_pool(op, cayley=0)
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert not is_signed_permutation(report.witness.rotation)
    assert str(report.witness.rotation) == "[5/13 -12/13; 12/13 5/13]"
    assert report.witness.rotation == reference_rotation_witness(op)[1]
    assert report.witness.reverify(op)


def test_sampled_witness_keeps_the_seeded_points():
    # (tau + 3) xi1^2 xi2^2: the first sampled rotation that moves it is
    # tried at a point with tau = -3, so it is passed over only when the
    # points are drawn exactly as the reference draws them.
    op = parse_operator("(-i*Dt + 3)*Dx1^2*Dx2^2", 2)
    report = check_rotation_invariance(op)
    assert str(report.witness.rotation) == "[4/5 3/5; -3/5 4/5]"
    assert report.witness.rotation == reference_rotation_witness(op)[1]
    assert report.witness.reverify(op)


@pytest.mark.parametrize(
    "text",
    [
        "Dt*Dx2^4",
        # tau (tau + 2/3)(tau - 1/2)(tau - 1) xi1^2 vanishes at every seeded
        # point the reference tries on the swap, so it walks on to a sampled
        # rotation; relabelling sees the swap move the symbol.
        "-i*Dt*(-i*Dt + 2/3)*(-i*Dt - 1/2)*(-i*Dt - 1)*Dx1^2",
    ],
)
def test_witness_is_the_swap_where_the_point_test_is_late(text):
    op = parse_operator(text, 2)
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert str(report.witness.rotation) == "[0 1; 1 0]"
    assert report.witness.reverify(op)
    swap = list(orthogonal_witness_pool(2, POOL_SEED, 0)).index(report.witness.rotation)
    index, reference = reference_rotation_witness(op)
    assert reference != report.witness.rotation and index > swap


def test_witness_in_forty_dimensions_is_fast():
    op = parse_operator("Dx1^2", 40)
    started = time.perf_counter()
    report = check_rotation_invariance(op)
    elapsed = time.perf_counter() - started
    assert not report.invariant
    assert report.witness.rotation == signed_permutation((2, 1, *range(3, 41)), (1,) * 40)
    assert elapsed < 1.0, f"Dx1^2 at n = 40 took {elapsed:.2f}s"


def test_witness_in_two_hundred_dimensions_is_fast():
    op = parse_operator("Dx1^2", 200)
    started = time.perf_counter()
    report = check_rotation_invariance(op)
    elapsed = time.perf_counter() - started
    assert not report.invariant
    swapped = [1, 0, *range(2, 200)]
    rows = (" ".join("1" if j == swapped[i] else "0" for j in range(200)) for i in range(200))
    assert str(report.witness.rotation) == "[" + "; ".join(rows) + "]"
    assert elapsed < 1.0, f"Dx1^2 at n = 200 took {elapsed:.2f}s"


@st.composite
def even_operators(draw) -> LPDO:
    """Sums of Dt^j Dx^alpha with every alpha_a even, at n = 2..4: a symbol
    even in each xi_a, so a rejection takes the permutation route."""
    n = draw(st.integers(2, 4))
    table = {}
    for _ in range(draw(st.integers(1, 3))):
        key = (draw(st.integers(0, 3)), tuple(2 * draw(st.integers(0, 2)) for _ in range(n)))
        table[key] = draw(gaussians.filter(bool))
    return LPDO(n, table)


@settings(max_examples=40, deadline=None)
@given(even_operators())
def test_witness_against_reference_search(op):
    """The witness is the first pool permutation that moves the symbol, never
    later than the reference's point-test witness; with no moving
    permutation both searches return the same sampled rotation."""
    report = check_rotation_invariance(op)
    assume(not report.invariant)
    index, reference = reference_rotation_witness(op)
    assert report.witness.reverify(op)
    assert RotationWitness(reference).reverify(op)
    signed = list(orthogonal_witness_pool(op.n, POOL_SEED, 0))
    first = next((i for i, rot in enumerate(signed) if conj_rotation(op, rot) != op), None)
    if first is None:
        assert not is_signed_permutation(reference)
        assert report.witness.rotation == reference
    else:
        assert report.witness.rotation == signed[first]
        assert all(signed[first].entry(i, j) >= 0 for i in range(op.n) for j in range(op.n))
        assert first <= index


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
    expected = MultiPoly(ref.RADIAL_VARS, {(1, 0): -2, (0, 1): -1})
    assert ref.reduced(report.radial) == expected


def test_rejected_report_carries_no_reduction():
    report = check_rotation_invariance(LPDO.space_derivative(2, 1))
    assert not report.invariant
    assert report.radial is None
