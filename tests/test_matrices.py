"""Exact orthogonal matrices: signed permutations, plane rotations and
the Cayley transform of the reference routes."""

import random
from fractions import Fraction

import pytest

from galinv import reflection, signed_permutation
from galinv.matrices import fixed_rotation

from reference_matrices import (
    RationalMatrix,
    all_signed_permutations,
    apply,
    cayley_orthogonal,
    dense_matrix,
    from_matrix,
    inverse,
    mul,
    sample_cayley_rotations,
    transpose,
)


def F(p, q=1):
    return Fraction(p, q)


def test_cayley_known_2x2():
    a = RationalMatrix(((F(0), F(1, 2)), (F(-1, 2), F(0))))
    r = cayley_orthogonal(a)
    assert dense_matrix(r).entries == (
        (F(3, 5), F(-4, 5)),
        (F(4, 5), F(3, 5)),
    )


def test_cayley_zero_is_identity():
    a = RationalMatrix(((F(0), F(0)), (F(0), F(0))))
    assert dense_matrix(cayley_orthogonal(a)) == RationalMatrix.identity(2)


def test_cayley_3x3_block():
    rows = [[F(0)] * 3 for _ in range(3)]
    rows[0][1] = F(1)
    rows[1][0] = F(-1)
    r = cayley_orthogonal(RationalMatrix(tuple(tuple(row) for row in rows)))
    assert r.entry(0, 0) == 0 and r.entry(0, 1) == -1
    assert r.entry(1, 0) == 1 and r.entry(1, 1) == 0
    assert r.entry(2, 2) == 1


def test_cayley_rejects_non_skew():
    with pytest.raises(ValueError):
        cayley_orthogonal(RationalMatrix(((F(1), F(0)), (F(0), F(1)))))


def test_signed_permutation_identity():
    r = signed_permutation((1, 2, 3), (1, 1, 1))
    assert dense_matrix(r) == RationalMatrix.identity(3)


def test_signed_permutation_o1_reflection():
    r = signed_permutation((1,), (-1,))
    assert dense_matrix(r).entries == ((F(-1),),)


def test_signed_permutation_swap_with_sign():
    r = signed_permutation((2, 1), (1, -1))
    assert mul(transpose(dense_matrix(r)), dense_matrix(r)) == RationalMatrix.identity(2)
    assert apply(dense_matrix(r), (F(1), F(0))) == (F(0), F(1))
    assert apply(dense_matrix(r), (F(0), F(1))) == (F(-1), F(0))


def test_signed_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        signed_permutation((1, 1), (1, 1))
    with pytest.raises(ValueError):
        signed_permutation((1, 2), (2, 1))


def test_product_matches_the_dense_sum():
    rng = random.Random(5)
    for _ in range(30):
        rows, inner, cols = (rng.randint(1, 4) for _ in range(3))

        def sparse(r, c):
            return RationalMatrix(tuple(
                tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) * rng.randint(0, 1) for _ in range(c))
                for _ in range(r)
            ))

        a, b = sparse(rows, inner), sparse(inner, cols)
        dense = tuple(
            tuple(sum((a.entry(i, k) * b.entry(k, j) for k in range(inner)), F(0)) for j in range(cols))
            for i in range(rows)
        )
        product = mul(a, b)
        assert product.entries == dense
        assert all(type(e) is Fraction for row in product.entries for e in row)


def test_orthogonality_verified_on_construction():
    with pytest.raises(ValueError):
        from_matrix(RationalMatrix(((F(1), F(1)), (F(0), F(1)))))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_generated_matrices_are_exactly_orthogonal(n):
    identity = RationalMatrix.identity(n)
    pool = all_signed_permutations(n) + sample_cayley_rotations(n, 20, seed=7)
    assert len(all_signed_permutations(n)) == [2, 8, 48][n - 1]
    for r in pool:
        assert mul(transpose(dense_matrix(r)), dense_matrix(r)) == identity
        assert mul(dense_matrix(r), transpose(dense_matrix(r))) == identity


def test_reflection_flips_one_axis():
    r = reflection(3, 2)
    assert apply(dense_matrix(r), (F(1), F(1), F(1))) == (F(1), F(-1), F(1))


def test_inverse_roundtrip():
    m = RationalMatrix(((F(2), F(1)), (F(1), F(1))))
    assert mul(m, inverse(m)) == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(RationalMatrix(((F(1), F(1)), (F(1), F(1)))))


@pytest.mark.parametrize("rot", [fixed_rotation(2), reflection(2, 1), signed_permutation((2, 3, 1), (1, -1, 1))],
                         ids=str)
def test_entry_refuses_indices_outside_the_map(rot):
    """`entry` reads R[i][j] for 0 <= i, j < n only; no index wraps or
    falls through to the identity."""
    n = rot.n
    for i, j in ((n, 0), (0, n), (7, 7), (-1, -1), (-2, -2), (-1, 0), (0, -n)):
        with pytest.raises(IndexError, match=rf"^entry \({i}, {j}\) is outside 0\.\.{n - 1}$"):
            rot.entry(i, j)
    assert from_matrix(dense_matrix(rot)) == rot
