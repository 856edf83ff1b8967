"""Rotation witnesses held as the columns they move, against the dense routes.

Every orthogonal map is held as the columns it moves, and `conj_rotation`
binds only those coordinates.  `reference_matrices` keeps the dense
construction and the dense bindings of every coordinate; here the two
must give the same entries, rendering and conjugated operators, and the
columns that `reflection`, `signed_permutation` and `fixed_rotation`
build unchecked must be the checked constructor's canonical form of
their dense matrices.  The witness search decides S_n
symmetry in one pass over the symbol, and it must name the same first
moving permutation as the swap scan it replaced.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galinv import (
    LPDO,
    GaussianRational,
    OrthogonalMatrix,
    check_rotation_invariance,
    conj_rotation,
    parse_operator,
    reflection,
    signed_permutation,
    symbol_of,
)
from galinv import checks
from galinv.checks import RotationWitness, _rotation_witness
from galinv.matrices import RationalMatrix, fixed_rotation
from galinv.multipoly import _symmetric

from reference_matrices import dense_conj_rotation, dense_fixed_rotation, first_moving_permutation

small = st.integers(-3, 3)
gaussians = st.builds(lambda re, im: GaussianRational(Fraction(re), Fraction(im)), small, small)


def dense_signed_permutation(perm, signs) -> OrthogonalMatrix:
    """The dense matrix with signs[j] at row perm[j], column j, checked."""
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j] - 1][j] = Fraction(signs[j])
    return OrthogonalMatrix.from_matrix(RationalMatrix(tuple(map(tuple, rows))))


def constant_operators(n: int):
    """Sums of up to four c*Dt^j*Dx^alpha of order <= 4 at dimension n."""
    key = st.tuples(st.integers(0, 2), st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return st.dictionaries(key.map(lambda k: (k[0], tuple(k[1]))), gaussians.filter(bool),
                           min_size=1, max_size=4).map(lambda table: LPDO(n, table))


@st.composite
def sparse_and_dense(draw):
    """A signed permutation at n = 1..6 or the fixed rotation at n = 2..6,
    with its dense reference and a constant operator of that dimension."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        perm = tuple(draw(st.permutations(range(1, n + 1))))
        signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
        sparse, dense = signed_permutation(perm, signs), dense_signed_permutation(perm, signs)
    else:
        n = draw(st.integers(2, 6))
        sparse, dense = fixed_rotation(n), dense_fixed_rotation(n)
    return sparse, dense, draw(constant_operators(n))


@settings(max_examples=60, deadline=None)
@given(sparse_and_dense())
def test_sparse_forms_match_the_dense_reference(case):
    sparse, dense, op = case
    n = dense.n
    assert sparse.n == n
    for i in range(n):
        for j in range(n):
            entry = sparse.entry(i, j)
            assert type(entry) is Fraction and entry == dense.entry(i, j)
    assert sparse.matrix == dense.matrix
    assert str(sparse) == str(dense)
    expected = dense_conj_rotation(op, dense.matrix)
    assert conj_rotation(op, sparse) == expected
    assert conj_rotation(op, dense) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_factories_build_the_checked_canonical_form(data):
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["reflection", "signed_permutation", "fixed_rotation"]))
    if kind == "reflection":
        m = reflection(n, data.draw(st.integers(1, n)))
    elif kind == "signed_permutation":
        perm = tuple(data.draw(st.permutations(range(1, n + 1))))
        m = signed_permutation(perm, data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    else:
        m = fixed_rotation(data.draw(st.integers(2, 6)))
    checked = OrthogonalMatrix.from_matrix(m.matrix)
    assert checked == m and hash(checked) == hash(m)
    assert OrthogonalMatrix(m.n, m.columns) == m


def test_the_checked_constructor_takes_a_large_shift_fast():
    n = 2000
    shift = [(a, [(a % n + 1, 1)]) for a in range(1, n + 1)]
    started = time.perf_counter()
    built = OrthogonalMatrix(n, shift)
    elapsed = time.perf_counter() - started
    assert built == signed_permutation([a % n + 1 for a in range(1, n + 1)], (1,) * n)
    assert elapsed < 1.0, f"checking a cyclic shift at n = {n} took {elapsed:.2f}s"


def test_the_checked_constructor_canonicalizes_and_refuses():
    assert OrthogonalMatrix(3, [(2, [(3, 1), (2, 0)]), (3, [(2, 1)]), (1, [(1, 1)])]).columns == (
        (2, ((3, Fraction(1)),)), (3, ((2, Fraction(1)),)))
    assert OrthogonalMatrix(2, []) == OrthogonalMatrix.from_matrix(RationalMatrix.identity(2))
    for n, columns, message in [
        (2, [(1, [(2, 1)])], "matrix is not orthogonal"),  # touches the unmoved row 2
        (2, [(1, [(1, 1), (2, 1)]), (2, [(1, 1), (2, -1)])], "matrix is not orthogonal"),
        (2, [(1, []), (2, [(2, -1)])], "matrix is not orthogonal"),
        (2, [(1, [(2, 1)]), (2, [(2, 1)])], "matrix is not orthogonal"),
        (2, [(3, [(3, -1)])], "column 3 is outside 1..2 or given twice"),
        (2, [(1, [(2, 1)]), (1, [(2, 1)])], "column 1 is outside 1..2 or given twice"),
        (2, [(1, [(0, 1)])], "row 0 of column 1 is outside 1..2 or given twice"),
        (2, [(1, [(2, 1), (2, 1)])], "row 2 of column 1 is outside 1..2 or given twice"),
    ]:
        with pytest.raises(ValueError) as caught:
            OrthogonalMatrix(n, columns)
        assert str(caught.value) == message
    with pytest.raises(ValueError, match="square"):
        OrthogonalMatrix.from_matrix(RationalMatrix(((1, 0),)))
    with pytest.raises(ValueError, match="axis 3 is outside 1..2"):
        reflection(2, 3)


def test_sparse_forms_bind_only_what_they_move():
    assert [a for a, _ in reflection(5, 3).columns] == [3]
    assert [a for a, _ in signed_permutation((1, 4, 3, 2), (1, 1, 1, 1)).columns] == [2, 4]
    assert [a for a, _ in fixed_rotation(6).columns] == [1, 2]
    assert [a for a, _ in dense_fixed_rotation(3).columns] == [1, 2]


def test_sparse_forms_refuse_bad_input():
    with pytest.raises(ValueError):
        signed_permutation((1, 3), (1, 1))
    with pytest.raises(ValueError):
        signed_permutation((1, 2), (1, 0))
    with pytest.raises(ValueError):
        fixed_rotation(1)
    with pytest.raises(ValueError):
        OrthogonalMatrix.from_matrix(RationalMatrix(((3, 4), (4, -3))))


@pytest.mark.parametrize(
    "rotation, fixed",
    [
        (reflection(2, 1), "Dx2^3 + Dx1^2"),
        (signed_permutation((2, 1, 3), (1, 1, 1)), "Dx1^2*Dx2^2 + Dx3"),
        (fixed_rotation(3), "Lap^2 + Dt*Dx3"),
    ],
)
def test_witness_reverify_is_false_where_its_map_fixes_the_operator(rotation, fixed):
    op = parse_operator(fixed, rotation.n)
    assert not check_rotation_invariance(op).invariant
    assert conj_rotation(op, rotation) == op
    assert not RotationWitness(rotation).reverify(op)


# ---------------------------------------------------- one-pass S_n symmetry


@st.composite
def symbols_with_orbits(draw):
    """An even symbol at n = 2..6: random terms, or each drawn term summed
    over its S_n orbit, then one orbit coefficient perturbed (or dropped)."""
    n = draw(st.integers(2, 6))
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.sampled_from((0, 0, 2, 4)), min_size=n, max_size=n),
                  gaussians.filter(bool)),
        min_size=1, max_size=3,
    ))
    table = {}
    if draw(st.booleans()):
        for j, alpha, c in terms:
            table[(j, tuple(alpha))] = c
    else:
        from itertools import permutations

        for j, alpha, c in terms:
            for image in set(permutations(alpha)):
                table[(j, image)] = table.get((j, image), GaussianRational()) + c
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(table)))
            table[key] = table[key] + draw(gaussians)
    table = {key: c for key, c in table.items() if c}
    assume(table)  # dropping the only orbit's coefficient leaves the zero operator
    return n, table


@settings(max_examples=80, deadline=None)
@given(symbols_with_orbits())
def test_one_pass_symmetry_matches_the_swap_scan(case):
    n, table = case
    op = LPDO(n, table)
    p = symbol_of(op).poly
    first = first_moving_permutation(p, n)
    assert _symmetric(p, n) == (first is None)
    witness = _rotation_witness(op, ("radial",), p).rotation
    if first is None:
        assert witness == fixed_rotation(n)
    else:
        assert witness == signed_permutation(first, (1,) * n)


def test_a_swap_reject_at_n2_relabels_once(monkeypatch):
    calls = []

    def counted(p, perm):
        calls.append(perm)
        return moves(p, perm)

    moves = checks._relabelling_moves
    monkeypatch.setattr(checks, "_relabelling_moves", counted)
    report = check_rotation_invariance(parse_operator("3*Dx1^2", 2))
    assert str(report.witness.rotation) == "[0 1; 1 0]"
    assert calls == [(2, 1)]


def test_witnesses_in_a_thousand_dimensions_reverify_fast():
    n = 1000
    single = parse_operator("Dx1^2", n)
    powers = LPDO(n, {(0, tuple(4 * (b == a) for b in range(n))): 1 for a in range(n)})
    swap = signed_permutation((2, 1, *range(3, n + 1)), (1,) * n)
    for op, kind, expected in ((single, "swap", swap), (powers, "fixed rotation", fixed_rotation(n))):
        witness = check_rotation_invariance(op).witness
        assert witness.rotation == expected
        started = time.perf_counter()
        assert witness.reverify(op)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"a {kind} witness at n = {n} took {elapsed:.2f}s to re-verify"
