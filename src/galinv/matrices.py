"""Exact rational matrices and the orthogonal maps that witness rotation rejects.

A rotation reject is witnessed by a reflection, a coordinate permutation
or the fixed rotation [3/5 -4/5; 4/5 3/5] in the (xi1, xi2) plane, each
held as an `OrthogonalMatrix` of the few columns it moves and built
unchecked by `reflection`, `signed_permutation` or `fixed_rotation`.
Any other map is checked to satisfy R^T R = I.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

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
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]


class OrthogonalMatrix(_FrozenValue):
    """An orthogonal n x n map R as (a, ((b, R[b][a]), ...)) for each column
    a that is not e_a: entries nonzero, indices 1-based and ascending.  The
    given columns must be orthonormal and touch no other row; their Gram
    entries are summed row by row, at a cost of sum (row entries)^2."""

    _fields = ("n", "columns")

    def __init__(self, n: int, columns: Iterable[tuple[int, Iterable[tuple[int, Fraction | int]]]]) -> None:
        given, rows, gram = {}, defaultdict(list), defaultdict(Fraction)
        for a, column in columns:
            if not 1 <= a <= n or a in given:
                raise ValueError(f"column {a} is outside 1..{n} or given twice")
            entries: dict[int, Fraction] = {}
            for b, value in column:
                if not 1 <= b <= n or b in entries:
                    raise ValueError(f"row {b} of column {a} is outside 1..{n} or given twice")
                entries[b] = Fraction(value)
            given[a] = tuple(sorted((b, e) for b, e in entries.items() if e))
            for b, e in given[a]:
                rows[b].append((a, e))
        for row in rows.values():
            for a, e in row:
                for c, f in row:
                    gram[a, c] += e * f
        if (rows.keys() - given.keys() or sum(a == c for a, c in gram) != len(given)
                or any(g != (a == c) for (a, c), g in gram.items())):
            raise ValueError("matrix is not orthogonal")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "columns", tuple((a, c) for a, c in sorted(given.items()) if c != ((a, 1),)))

    @classmethod
    def from_matrix(cls, matrix: RationalMatrix) -> "OrthogonalMatrix":
        """The map of a square matrix, checked to satisfy R^T R = I."""
        if matrix.rows != matrix.cols:
            raise ValueError("orthogonal matrices are square")
        return cls(matrix.rows, [(a, enumerate(column, 1)) for a, column in enumerate(zip(*matrix.entries), 1)])

    def entry(self, i: int, j: int) -> Fraction:
        """R[i][j], 0-based."""
        column = dict(self.columns).get(j + 1)
        return Fraction(int(i == j)) if column is None else dict(column).get(i + 1, Fraction(0))

    def _rows(self, cell) -> list[list]:
        """The identity's rows of cells, each moved column put in."""
        n, zero = self.n, cell(0)
        rows = [[zero] * i + [cell(1)] + [zero] * (n - i - 1) for i in range(n)]
        for a, column in self.columns:
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


def _orthogonal(n: int, columns: tuple) -> OrthogonalMatrix:
    """Internal constructor: the columns are canonical and orthonormal."""
    rot = object.__new__(OrthogonalMatrix)
    rot.__dict__.update(n=n, columns=columns)
    return rot


_SIGNS = {1: Fraction(1), -1: Fraction(-1)}
# [3/5 -4/5; 4/5 3/5] in the (1, 2) plane, as its two columns.
_FIXED_COLUMNS = ((1, ((1, Fraction(3, 5)), (2, Fraction(4, 5)))),
                  (2, ((1, Fraction(-4, 5)), (2, Fraction(3, 5)))))


def signed_permutation(perm: Sequence[int], signs: Sequence[int]) -> OrthogonalMatrix:
    """The orthogonal map sending e_j to signs[j] * e_perm[j] (1-based perm)."""
    perm, n = tuple(perm), len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    if len(signs) != n or any([s not in (1, -1) for s in signs]):
        raise ValueError("signs must be +-1, one per coordinate")
    return _orthogonal(n, tuple([(a, ((b, _SIGNS[s]),))
                                 for a, (b, s) in enumerate(zip(perm, signs), 1) if b != a or s != 1]))


def reflection(n: int, axis: int) -> OrthogonalMatrix:
    """Reflection that flips the sign of the given 1-based coordinate."""
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} is outside 1..{n}")
    return _orthogonal(n, ((axis, ((axis, _SIGNS[-1]),)),))


def fixed_rotation(n: int) -> OrthogonalMatrix:
    """R = [3/5 -4/5; 4/5 3/5] on the coordinates (1, 2), the identity on the others."""
    if n < 2:
        raise ValueError(f"the fixed rotation needs n >= 2, not {n}")
    return _orthogonal(n, _FIXED_COLUMNS)
