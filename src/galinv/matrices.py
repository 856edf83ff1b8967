"""Exact rational matrices and orthogonal-matrix generation.

Orthogonal matrices over the rationals are produced two ways: the Cayley
transform R = (I - A)(I + A)^-1 of a skew-symmetric rational matrix, which
yields rotations (det +1), and signed permutation matrices, which supply
the reflection component.  Together they sample the whole orthogonal
group exactly; every constructed matrix is verified to satisfy R^T R = I.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


def _frac_rows(entries) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in entries)
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frac_rows(self.entries))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        zero, one = Fraction(0), Fraction(1)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        # Each nonzero a_ik meets only the nonzero entries of row k of
        # `other`, so a signed permutation costs O(n^2), not O(n^3).
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [Fraction(0)] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return RationalMatrix(tuple(out))

    def _same_shape(self, other: "RationalMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows)
            for j in range(self.rows)
        )

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
                for i, row in enumerate(self.entries)]
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

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match matrix")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)


@dataclass(frozen=True)
class OrthogonalMatrix:
    """A square rational matrix verified to satisfy R^T R = I.

    For a square matrix that makes R^T the inverse, so R R^T = I as well.
    """

    matrix: RationalMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("orthogonal matrices are square")
        if m.transpose() * m != RationalMatrix.identity(m.rows):
            raise ValueError("matrix is not orthogonal")

    @property
    def n(self) -> int:
        return self.matrix.rows

    def entry(self, i: int, j: int) -> Fraction:
        return self.matrix.entry(i, j)

    def compose(self, other: "OrthogonalMatrix") -> "OrthogonalMatrix":
        return OrthogonalMatrix(self.matrix * other.matrix)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self.matrix.entries
        ) + "]"


def cayley_orthogonal(skew: RationalMatrix) -> OrthogonalMatrix:
    """Cayley transform (I - A)(I + A)^-1 of a skew-symmetric matrix.

    For skew-symmetric A the transform is always defined (I + A has
    positive-definite symmetric part) and lands in the rotation group.
    """
    if not skew.is_skew_symmetric():
        raise ValueError("Cayley transform needs a skew-symmetric matrix")
    identity = RationalMatrix.identity(skew.rows)
    return OrthogonalMatrix((identity - skew) * (identity + skew).inverse())


def signed_permutation(perm: Sequence[int], signs: Sequence[int]) -> OrthogonalMatrix:
    """Orthogonal matrix sending e_j to signs[j] * e_perm[j] (1-based perm)."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1, one per coordinate")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j] - 1][j] = Fraction(signs[j])
    return OrthogonalMatrix(RationalMatrix(tuple(tuple(row) for row in rows)))


def reflection(n: int, axis: int) -> OrthogonalMatrix:
    """Reflection that flips the sign of the given 1-based coordinate."""
    signs = tuple(-1 if a == axis else 1 for a in range(1, n + 1))
    return signed_permutation(tuple(range(1, n + 1)), signs)


def all_signed_permutations(n: int) -> list[OrthogonalMatrix]:
    """Every signed permutation matrix in O(n): n! * 2^n of them."""
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
