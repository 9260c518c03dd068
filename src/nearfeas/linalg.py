"""Dense rational matrices, sparse integer rows, and exact rank.

Matrices are immutable row-major tuples of exact rationals.  Rank never sees
a float: rows are scaled to integers (rank-preserving) and reduced by
fraction-free Bareiss elimination, which keeps intermediate growth bounded.
An LP's constraint rows are ``IntRows``, integers over one scale per row.
"""

from typing import NamedTuple

from .backend import bareiss_rank, dot
from .rationals import ZERO, as_rat, common_denominator, scaled


class IntRows(NamedTuple):
    """A rows x cols rational matrix as sparse integer rows: row i is
    ``nonzeros[i] / scales[i]``, its nonzeros listed as (column, int) pairs
    in column order, and ``scales[i]`` the least positive integer that makes
    the row integral."""

    rows: int
    cols: int
    nonzeros: list
    scales: list


class Matrix:
    """Immutable rows x cols rational matrix, entries row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("dimension mismatch: entry count != rows*cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, data):
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for row in data:
            if len(row) != cols:
                raise ValueError("dimension mismatch: ragged rows")
        return cls(rows, cols, [as_rat(v) for row in data for v in row])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return self.entries[j :: self.cols] if self.cols else ()

    def inf_norm(self):
        return max((abs(e) for e in self.entries), default=ZERO)

    def matvec(self, x):
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(dot(self.row(i), x, ZERO) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rank_exact(mat):
    """Exact rank over the rationals: each row is scaled to integers by its
    common denominator (rank is unchanged) before the elimination."""
    if mat.rows == 0 or mat.cols == 0:
        return 0
    rows = []
    for i in range(mat.rows):
        row = mat.row(i)
        L = common_denominator(row)
        rows.append([scaled(e, L) for e in row])
    return bareiss_rank(rows)


def is_nonsingular(mat):
    """True iff the columns are linearly independent (rank equals cols)."""
    return rank_exact(mat) == mat.cols
