"""Rational matrices as sparse integer rows.

A ``Matrix`` holds only integers: row i is ``nonzeros[i] / scales[i]``, its
(column, int) nonzeros in column order over the least positive scale, so
two matrices are equal exactly when their rational entries are.  Products
and the norm work on these ints; a ``Rat`` is built only for a result, or
for the ``row`` and ``column`` views.
"""

import math

from .backend import dot
from .rationals import ZERO, Rat, as_rat, integer_row


class Matrix:
    """Immutable rows x cols rational matrix; the constructor takes each
    row's nonzeros in column order over a positive int scale, and divides the
    row by the gcd of its scale and its entries."""

    __slots__ = ("rows", "cols", "nonzeros", "scales")

    def __init__(self, rows, cols, nonzeros, scales):
        nonzeros, scales = list(nonzeros), list(scales)
        if rows < 0 or cols < 0 or len(nonzeros) != rows or len(scales) != rows:
            raise ValueError("dimension mismatch: row count != rows")
        for i, (nz, s) in enumerate(zip(nonzeros, scales)):
            if s < 1:
                raise ValueError("row scales must be positive")
            g = math.gcd(s, *[a for _, a in nz]) if s != 1 else 1
            nonzeros[i] = tuple([(j, a // g) for j, a in nz] if g != 1 else nz)
            scales[i] = s // g
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", tuple(nonzeros))
        object.__setattr__(self, "scales", tuple(scales))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, data):
        """The matrix of rational rows; every entry passes ``as_rat``."""
        rows = [integer_row([as_rat(v) for v in row]) for row in data]
        cols = len(rows[0][1]) if rows else 0
        if any(len(ints) != cols for _, ints in rows):
            raise ValueError("dimension mismatch: ragged rows")
        nonzeros = [[(j, a) for j, a in enumerate(ints) if a] for _, ints in rows]
        return cls(len(rows), cols, nonzeros, [s for s, _ in rows])

    def row(self, i):
        """Row i as a tuple of Rats."""
        out = [ZERO] * self.cols
        s = self.scales[i]
        for j, a in self.nonzeros[i]:
            out[j] = Rat(a, s)
        return tuple(out)

    def column(self, j):
        """Column j as a tuple of Rats."""
        return tuple(Rat(dict(nz).get(j, 0), s) for nz, s in zip(self.nonzeros, self.scales))

    def inf_norm(self):
        """The largest |entry|, found by integer cross products."""
        top, den = 0, 1
        for nz, s in zip(self.nonzeros, self.scales):
            a = max([abs(v) for _, v in nz], default=0)
            if a * den > top * s:
                top, den = a, s
        return Rat(top, den)

    def matvec(self, x):
        """The product with x: an integer sum per row, one Rat per row."""
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(Rat(dot(nz, x), s) for nz, s in zip(self.nonzeros, self.scales))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.scales == other.scales
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros, self.scales))

    def __repr__(self):
        return f"Matrix({self.rows}, {self.cols}, {self.nonzeros!r}, {self.scales!r})"

