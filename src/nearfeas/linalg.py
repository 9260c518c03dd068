"""Dense rational matrices, sparse integer rows, and exact rank.

Matrices are immutable row-major tuples of exact rationals.  Rank never sees
a float: rows are scaled to integers (rank-preserving) and reduced by
fraction-free Bareiss elimination, which keeps intermediate growth bounded.
An LP's constraint rows are ``IntRows``, integers over one scale per row; a
``Matrix`` keeps that form of itself, and its products and norm are integer
sums and comparisons over it.
"""

from typing import NamedTuple

from .backend import bareiss_rank, dot
from .rationals import Rat, as_rat, integer_row


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
    """Immutable rows x cols rational matrix, entries row-major; its
    ``IntRows`` form, built on first use, takes no part in equality."""

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("dimension mismatch: entry count != rows*cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_ints", None)

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

    def int_rows(self):
        """The matrix as ``IntRows``, built on the first call and kept."""
        if self._ints is None:
            rows = [integer_row(self.row(i)) for i in range(self.rows)]
            nonzeros = [[(j, a) for j, a in enumerate(ints) if a] for _, ints in rows]
            form = IntRows(self.rows, self.cols, nonzeros, [s for s, _ in rows])
            object.__setattr__(self, "_ints", form)
        return self._ints

    def inf_norm(self):
        """The largest |entry|, found by integer cross products."""
        form, top, den = self.int_rows(), 0, 1
        for nz, s in zip(form.nonzeros, form.scales):
            a = max([abs(v) for _, v in nz], default=0)
            if a * den > top * s:
                top, den = a, s
        return Rat(top, den)

    def matvec(self, x):
        """The product with x: an integer sum per row, one Rat per row."""
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        form = self.int_rows()
        return tuple(Rat(dot(nz, x, 0), s) for nz, s in zip(form.nonzeros, form.scales))

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
    return bareiss_rank([integer_row(mat.row(i))[1] for i in range(mat.rows)])


def is_nonsingular(mat):
    """True iff the columns are linearly independent (rank equals cols)."""
    return rank_exact(mat) == mat.cols
