"""The dense matrix routes of the rotation witnesses, kept as references.

The package holds every orthogonal map as the columns it moves, and
`conj_rotation` binds only those coordinates.  The routes that served the Cayley witness search before live here
unchanged, as functions of the dense matrices:

- `cayley_orthogonal` is the Cayley transform (I - A)(I + A)^-1 of a
  skew-symmetric matrix, a rotation; `iter_cayley_rotations` and
  `sample_cayley_rotations` draw a seeded stream of them;
- `all_signed_permutations` enumerates the n! * 2^n signed permutations;
- `add`, `sub`, `mul`, `transpose`, `inverse`, `is_skew_symmetric`,
  `compose` and `apply` are the matrix operations they used.

`dense_fixed_rotation` builds the fixed rotation [3/5 -4/5; 4/5 3/5]
entry by entry through the checked dense constructor, to compare
`galinv.matrices.fixed_rotation` and the witnesses against.

`dense_conj_rotation` is the binding route the package replaced: every
xi_a is bound to its full dense linear form sum_b R[b][a] xi_b, n terms
each.  `first_moving_permutation` is the witness search it replaced with
one symmetry pass: relabel the exponents by every candidate permutation in
turn, the identity first, and return the first that changes the term map.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, Sequence

from galinv import universe
from galinv.lpdo import LPDO, Symbol, symbol_of
from galinv.matrices import OrthogonalMatrix, RationalMatrix, signed_permutation
from galinv.multipoly import MultiPoly, _relabelling_moves


def add(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    _same_shape(a, b)
    return RationalMatrix(tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    ))


def sub(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    _same_shape(a, b)
    return RationalMatrix(tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    ))


def mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise ValueError("matrix shapes do not compose")
    # Each nonzero a_ik meets only the nonzero entries of row k of b, so
    # a signed permutation costs O(n^2), not O(n^3).
    right = [[(j, y) for j, y in enumerate(row) if y] for row in b.entries]
    out = []
    for row in a.entries:
        acc = [Fraction(0)] * b.cols
        for k, x in enumerate(row):
            if x:
                for j, y in right[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return RationalMatrix(tuple(out))


def transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(zip(*m.entries)))


def _same_shape(a: RationalMatrix, b: RationalMatrix) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("matrix shapes differ")


def is_skew_symmetric(m: RationalMatrix) -> bool:
    if m.rows != m.cols:
        return False
    return all(m.entries[i][j] == -m.entries[j][i] for i in range(m.rows) for j in range(m.rows))


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m.entries)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [value / pivot for value in work[col]]
        for r in range(n):
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return RationalMatrix(tuple(tuple(row[n:]) for row in work))


def apply(m: RationalMatrix, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(vector) != m.cols:
        raise ValueError("vector length does not match matrix")
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in m.entries)


def compose(a, b) -> OrthogonalMatrix:
    """The product a * b of two orthogonal maps of any form, checked."""
    return OrthogonalMatrix.from_matrix(mul(a.matrix, b.matrix))


def cayley_orthogonal(skew: RationalMatrix) -> OrthogonalMatrix:
    """Cayley transform (I - A)(I + A)^-1 of a skew-symmetric matrix.

    For skew-symmetric A the transform is always defined (I + A has
    positive-definite symmetric part) and lands in the rotation group.
    """
    if not is_skew_symmetric(skew):
        raise ValueError("Cayley transform needs a skew-symmetric matrix")
    identity = RationalMatrix.identity(skew.rows)
    return OrthogonalMatrix.from_matrix(mul(sub(identity, skew), inverse(add(identity, skew))))


def all_signed_permutations(n: int) -> list:
    """Every signed permutation: n! * 2^n of them."""
    return [
        signed_permutation(perm, signs)
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def iter_cayley_rotations(n: int, seed: int) -> Iterator[OrthogonalMatrix]:
    """Endless deterministic stream of rotations from random skew matrices."""
    rng = random.Random(seed)
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[i][j] = value
                rows[j][i] = -value
        yield cayley_orthogonal(RationalMatrix(tuple(tuple(r) for r in rows)))


def sample_cayley_rotations(n: int, count: int, seed: int) -> list[OrthogonalMatrix]:
    """Deterministic sample of rotations via random skew-symmetric matrices."""
    return list(itertools.islice(iter_cayley_rotations(n, seed), count))


def dense_fixed_rotation(n: int) -> OrthogonalMatrix:
    """[3/5 -4/5; 4/5 3/5] in the (1, 2) plane, the identity elsewhere, checked."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows[0][:2], rows[1][:2] = [Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]
    return OrthogonalMatrix.from_matrix(RationalMatrix(tuple(map(tuple, rows))))


def dense_conj_rotation(op: LPDO, matrix: RationalMatrix) -> LPDO:
    """p(tau, xi) -> p(tau, R^T xi), every xi_a bound to sum_b R[b][a] xi_b."""
    sym = symbol_of(op)
    names = sym.poly.variables
    bindings = {}
    for a in range(1, op.n + 1):
        acc = MultiPoly.zero(names)
        for b in range(1, op.n + 1):
            acc = acc + MultiPoly.var(names, universe.freq_space(b)) * matrix.entry(b - 1, a - 1)
        bindings[universe.freq_space(a)] = acc
    return LPDO._of_symbol(Symbol(sym.poly.substitute(bindings), op.n, op.order))


def first_moving_permutation(p: MultiPoly, n: int) -> tuple[int, ...] | None:
    """The first permutation of S_n (n <= 3), or of the swaps (1, b)
    (n > 3), whose exponent relabelling changes p; None if none does."""
    if n <= 3:
        perms = itertools.permutations(range(1, n + 1))
    else:
        perms = ((b, *range(2, b), 1, *range(b + 1, n + 1)) for b in range(2, n + 1))
    return next((perm for perm in perms if _relabelling_moves(p, perm)), None)
