"""Rotation invariance: the radial decider against independent oracles.

The package decides rotation invariance by the radial reduction alone,
in one pass over the symbol's packed monomials.  The routes it used
before live here as oracles: the slice-and-product reduction of
`reference_symbols.radial_decompose`, the infinitesimal criterion (the
generators xi_a d_b - xi_b d_a annihilate every tau-slice, and every
slice is even in each xi_a) and fixedness under a deterministic pool of
exact orthogonal matrices.  The same pool, walked with a point test at
every matrix and then along a longer stream of sampled rotations, is the
reference witness search; the package replaced its sampled rotations
with one fixed rotation.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
from galinv import universe
from galinv.checks import NotRadial, RotationWitness, radial_decompose
from galinv.multipoly import _radial_parts
from galinv.universe import random_rational

import reference_gaussrat as rg
import reference_symbols as ref
from reference_matrices import (
    all_signed_permutations,
    apply,
    dense_fixed_rotation,
    dense_matrix,
    iter_cayley_rotations,
    transpose,
)

POOL_SEED = 74511
POOL_CAYLEY = 20
# The reference witness search: its seed, then the lengths of its first
# and of its longer stream of sampled rotations.
WITNESS_SEED = 39021
WITNESS_CAYLEY = 20
WITNESS_EXTRA = 1000


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
    """(index, matrix): the first matrix of the witness pool, then of its
    longer sampled stream, that moves p at a seeded point."""
    n = op.n
    p = symbol_of(op).poly
    names = [universe.FREQ_TIME] + [universe.freq_space(a) for a in range(1, n + 1)]
    rng = random.Random(WITNESS_SEED)
    candidates = itertools.chain(
        orthogonal_witness_pool(n, WITNESS_SEED, WITNESS_CAYLEY),
        itertools.islice(iter_cayley_rotations(n, WITNESS_SEED + 1), WITNESS_EXTRA),
    )
    for index, rot in enumerate(candidates):
        tau, *xi = (random_rational(rng, 3) for _ in range(n + 1))
        here = dict(zip(names, [tau, *xi]))
        there = dict(zip(names, [tau, *apply(transpose(dense_matrix(rot)), xi)]))
        if p.evaluate(here) != p.evaluate(there):
            return index, rot
    return None


def generator_criterion(op: LPDO) -> bool:
    """Generator annihilation plus reflection evenness, slice by slice,
    on the reference kernel."""
    n = op.n
    xi = [universe.freq_space(a) for a in range(1, n + 1)]
    for part in ref.reference_symbol(op).split_by(universe.FREQ_TIME).values():
        names, var = part.variables, type(part).var
        for a in range(n):
            for b in range(a + 1, n):
                gen = var(names, xi[a]) * part.partial(xi[b]) - var(names, xi[b]) * part.partial(xi[a])
                if not gen.is_zero:
                    return False
        for name in xi:
            if part.substitute({name: -var(names, name)}) != part:
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


def draw_radial_table(draw, n: int) -> dict:
    """The table of a radial sum c_jk Dt^j Lap^k of order <= 4."""
    table: dict = {}
    for j in range(5):
        for k in range(3):
            if j + 2 * k > 4 or not draw(st.booleans()):
                continue
            c = draw(gaussians)
            for (lj, alpha), value in _laplacian_power_table(n, k).items():
                table[(lj + j, alpha)] = rg.held(rg.as_gaussian(value) * c + table.get((lj + j, alpha), 0))
    return table


@st.composite
def mixed_operators(draw) -> LPDO:
    """A radial sum c_jk Dt^j Lap^k of order <= 4, sometimes plus a few
    arbitrary derivative terms, so that both verdicts occur."""
    n = draw(st.integers(1, 3))
    table = draw_radial_table(draw, n)

    def add(key, value):
        table[key] = rg.held(rg.as_gaussian(value) + table.get(key, 0))

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


def outcome(decide, op):
    """The decomposition's entries in order, or the NotRadial message."""
    try:
        return list(decide(op).b.items())
    except NotRadial as failure:
        return str(failure)


@st.composite
def perturbed_radial_operators(draw) -> LPDO:
    """A radial sum at n = 1..5 plus up to three terms Dt^j Dx^alpha of
    order <= 4, alpha made of single or paired units, so that odd, short
    and wrongly weighted parts all occur."""
    n = draw(st.integers(1, 5))
    table = draw_radial_table(draw, n)
    for _ in range(draw(st.integers(0, 3))):
        j, unit = draw(st.integers(0, 2)), draw(st.sampled_from((1, 2)))
        alpha = [0] * n
        for _ in range(draw(st.integers(0, (4 - j) // unit))):
            alpha[draw(st.integers(0, n - 1))] += unit
        key = (j, tuple(alpha))
        table[key] = rg.held(rg.as_gaussian(draw(gaussians.filter(bool))) + table.get(key, 0))
    assume(any(table.values()))
    return LPDO(n, table)


@settings(max_examples=100, deadline=None)
@given(perturbed_radial_operators())
# A short tau^0 degree-2 part (one term of two) comes before a full
# part with a wrong coefficient, in the same slice and in a later one.
@example(LPDO(2, {(0, (0, 4)): 3, (0, (2, 0)): 2, (0, (2, 2)): 2, (0, (4, 0)): 1}))
@example(LPDO(2, {(0, (2, 0)): GaussianRational(0, 1), (1, (0, 2)): 2, (1, (2, 0)): 3}))
def test_one_pass_decider_matches_reference_route(op):
    """The same b in the same order, or the same failing part, and the same
    first odd axis, as the slice-and-product reduction."""
    assert outcome(radial_decompose, op) == outcome(ref.radial_decompose, op)
    assert _radial_parts(symbol_of(op).poly, op.n)[1] == ref.odd_axis(op)


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
    assert str(report.witness.rotation) == "[3/5 -4/5; 4/5 3/5]"
    assert RotationWitness(reference_rotation_witness(op)[1]).reverify(op)
    assert report.witness.reverify(op)


def test_fixed_rotation_moves_a_symbol_with_a_vanishing_tau_factor():
    # (tau + 3) xi1^2 xi2^2 vanishes wherever tau = -3; R moves it as a
    # polynomial, whatever points a sampled search would have tried.
    op = parse_operator("(-i*Dt + 3)*Dx1^2*Dx2^2", 2)
    report = check_rotation_invariance(op)
    assert str(report.witness.rotation) == "[3/5 -4/5; 4/5 3/5]"
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
        assert dense_matrix(report.witness.rotation) == dense_matrix(dense_fixed_rotation(op.n))
    else:
        assert report.witness.rotation == signed[first]
        assert all(signed[first].entry(i, j) >= 0 for i in range(op.n) for j in range(op.n))
        assert first <= index


@st.composite
def symmetric_non_radial_operators(draw) -> LPDO:
    """c*Dt^j times a power sum Dx1^(2m) + ... + Dxn^(2m) (m >= 2) or the
    product Dx1^2*...*Dxn^2, at n = 2..5, plus radial c_jk Dt^j Lap^k: a
    symbol even in each xi_a, fixed by every permutation, not radial."""
    n = draw(st.integers(2, 5))
    j = draw(st.integers(0, 2))
    c = draw(gaussians.filter(bool))
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        op = LPDO(n, {(j, tuple(2 * m if b == a else 0 for b in range(n))): c for a in range(n)})
    else:
        op = LPDO(n, {(j, (2,) * n): c})
    for _ in range(draw(st.integers(0, 2))):
        term = LPDO.time_derivative(n, draw(st.integers(0, 2))).scaled(draw(gaussians.filter(bool)))
        for _ in range(draw(st.integers(0, 2))):
            term = compose_const(term, LPDO.laplacian(n))
        op = op + term
    return op


@settings(max_examples=25, deadline=None)
@given(symmetric_non_radial_operators())
def test_fixed_rotation_witnesses_every_symmetric_non_radial_symbol(op):
    report = check_rotation_invariance(op)
    assert not report.invariant
    assert dense_matrix(report.witness.rotation) == dense_matrix(dense_fixed_rotation(op.n))
    assert report.witness.reverify(op)
    found = reference_rotation_witness(op)
    assert found is not None and RotationWitness(found[1]).reverify(op)


def test_rotation_path_builds_no_term_view(monkeypatch):
    ops = [
        parse_operator("Lap^2 + 2i*Dt", 3),  # accept
        parse_operator("Dx1^3 + Lap", 2),  # reflection
        parse_operator("Dx1^2", 3),  # permutation
        parse_operator("Dx1^4 + Dx2^4", 2),  # the fixed rotation
    ]

    def refuse(self):
        raise AssertionError("the rotation check built a term view")

    monkeypatch.setattr(MultiPoly, "terms", property(refuse))
    reports = [check_rotation_invariance(op) for op in ops]
    assert reports[0].invariant and reports[0].radial.b
    assert [str(r.witness.rotation) for r in reports[1:]] == [
        "[-1 0; 0 1]", "[0 1 0; 1 0 0; 0 0 1]", "[3/5 -4/5; 4/5 3/5]",
    ]


def test_fixed_rotation_witness_in_eighty_dimensions_is_fast():
    op = parse_operator(" + ".join(f"Dx{a}^4" for a in range(1, 81)), 80)
    started = time.perf_counter()
    report = check_rotation_invariance(op)
    elapsed = time.perf_counter() - started
    assert not report.invariant
    assert dense_matrix(report.witness.rotation) == dense_matrix(dense_fixed_rotation(80))
    assert elapsed < 1.0, f"Dx1^4 + ... + Dx80^4 at n = 80 took {elapsed:.2f}s"


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
