"""Exact rational matrices and the orthogonal maps that witness rotation rejects.

A rotation reject is witnessed by a reflection, a coordinate permutation
or the fixed rotation [3/5 -4/5; 4/5 3/5] in the (xi1, xi2) plane.  Each
moves at most two coordinates, so each is held as the group element it
is: a signed permutation as (perm, signs), the fixed rotation as its
plane and its 2 x 2 block.  Both are orthogonal by construction, so
building one costs O(n) and acting with one costs as much as the
coordinates it moves (`moved_columns`).  A general matrix, given to
`OrthogonalMatrix` as a `RationalMatrix`, is verified to satisfy
R^T R = I.  Every form offers `n`, `entry(i, j)`, a dense `.matrix` and
the same dense rendering.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .universe import _FrozenValue


def _frac_rows(entries) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in entries)
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


class RationalMatrix(_FrozenValue):
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "entries", _frac_rows(entries))

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


# One moved column a of R, 1-based, with its nonzero entries (b, R[b][a]).
Column = tuple[int, tuple[tuple[int, Fraction], ...]]


class OrthogonalMatrix(_FrozenValue):
    """A square rational matrix verified to satisfy R^T R = I.

    For a square matrix that makes R^T the inverse, so R R^T = I as well.
    """

    _fields = ("matrix",)

    def __init__(self, matrix: RationalMatrix) -> None:
        object.__setattr__(self, "matrix", matrix)
        if matrix.rows != matrix.cols:
            raise ValueError("orthogonal matrices are square")
        columns = [{k: e for k, e in enumerate(column) if e} for column in zip(*matrix.entries)]
        if any(sum(e * v.get(k, 0) for k, e in u.items()) != (i == j)
               for i, u in enumerate(columns) for j, v in enumerate(columns)):
            raise ValueError("matrix is not orthogonal")

    @property
    def n(self) -> int:
        return self.matrix.rows

    def entry(self, i: int, j: int) -> Fraction:
        return self.matrix.entry(i, j)

    def moved_columns(self) -> list[Column]:
        """Every column: a general matrix moves every coordinate."""
        return [(a, tuple((b, e) for b, e in enumerate(column, 1) if e))
                for a, column in enumerate(zip(*self.matrix.entries), 1)]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(map(str, row)) for row in self.matrix.entries) + "]"


class _SparseForm:
    """The dense views of a map held by the columns it moves."""

    __slots__ = ()

    def _rows(self, cell) -> list[list]:
        """The identity's rows of cells, each moved column put in."""
        n, zero = self.n, cell(0)
        rows = [[zero] * i + [cell(1)] + [zero] * (n - i - 1) for i in range(n)]
        for a, column in self.moved_columns():
            rows[a - 1][a - 1] = zero
            for b, value in column:
                rows[b - 1][a - 1] = cell(value)
        return rows

    @property
    def matrix(self) -> RationalMatrix:
        """The dense matrix, built on demand."""
        return RationalMatrix(tuple(map(tuple, self._rows(Fraction))))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(row) for row in self._rows(str)) + "]"


class SignedPermutation(_SparseForm, _FrozenValue):
    """The orthogonal map e_j -> signs[j] * e_perm[j] (1-based perm)."""

    _fields = ("perm", "signs")

    def __init__(self, perm: tuple[int, ...], signs: tuple[int, ...]) -> None:
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{n}")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1, one per coordinate")
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "signs", tuple(int(s) for s in signs))

    @property
    def n(self) -> int:
        return len(self.perm)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.signs[j] if self.perm[j] == i + 1 else 0)

    def moved_columns(self) -> list[Column]:
        """Each column a that the map moves, as its one entry (perm[a], signs[a])."""
        return [(a, ((b, Fraction(s)),))
                for a, (b, s) in enumerate(zip(self.perm, self.signs), 1) if b != a or s != 1]


class FixedRotation(_SparseForm, _FrozenValue):
    """R = [3/5 -4/5; 4/5 3/5] on the coordinates of `plane`, the identity
    on the others."""

    _fields = ("n",)
    plane = (1, 2)
    block = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "n", n)
        if n < 2:
            raise ValueError(f"the fixed rotation needs n >= 2, not {n}")

    def entry(self, i: int, j: int) -> Fraction:
        if i < 2 and j < 2:  # the plane (1, 2)
            return self.block[i][j]
        return Fraction(int(i == j))

    def moved_columns(self) -> list[Column]:
        """The plane's two columns."""
        (p, q), ((a, b), (c, d)) = self.plane, self.block
        return [(p, ((p, a), (q, c))), (q, ((p, b), (q, d)))]


# Every form a rotation witness or `conj_rotation` takes.
Rotation = OrthogonalMatrix | SignedPermutation | FixedRotation


def signed_permutation(perm: Sequence[int], signs: Sequence[int]) -> SignedPermutation:
    """The orthogonal map sending e_j to signs[j] * e_perm[j] (1-based perm)."""
    return SignedPermutation(tuple(perm), tuple(signs))


def reflection(n: int, axis: int) -> SignedPermutation:
    """Reflection that flips the sign of the given 1-based coordinate."""
    signs = tuple(-1 if a == axis else 1 for a in range(1, n + 1))
    return signed_permutation(tuple(range(1, n + 1)), signs)
