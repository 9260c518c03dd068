"""Known answers and properties of the exact kernels."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nearfeas import backend


def test_pivot_normalizes_column():
    t = [[2, 4], [3, 5]]
    assert backend.pivot_update(t, 0, 0, 1) == 2
    assert t[0] == [2, 4]  # the pivot row is left as it is
    assert t[1] == [0, -2]  # over the new denominator 2: [0, -1]

    # rows 6 * [1/2, 1, 0] and 6 * [1/3, 0, 1] over d = 2 * 3
    t = [[3, 6, 0], [2, 0, 6]]
    assert backend.pivot_update(t, 0, 0, 6) == 3
    assert t == [[3, 6, 0], [0, -2, 3]]

    # a pivot equal to d changes only rows with a nonzero in its column
    t = [[1, 2, 1, 0, 0], [3, 4, 0, 1, 0], [0, 5, 0, 0, 1]]
    assert backend.pivot_update(t, 0, 0, 1) == 1
    assert t == [[1, 2, 1, 0, 0], [0, -2, -3, 1, 0], [0, 5, 0, 0, 1]]


def test_bareiss_known_ranks():
    assert backend.bareiss_rank([[1, 0], [0, 1]]) == 2
    assert backend.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert backend.bareiss_rank([[0, 0], [0, 0]]) == 0


class _ExactDivisor(int):
    """An int that fails any floor division by it that leaves a remainder."""

    def __rfloordiv__(self, other):
        q, rem = divmod(other, int(self))
        assert rem == 0, f"{other} // {int(self)} is inexact"
        return q


def _gauss_jordan(rows, pr, pc):
    """Reference pivot over Fractions: scale the pivot row, clear the column."""
    prow = [v / rows[pr][pc] for v in rows[pr]]
    for i, row in enumerate(rows):
        rows[i] = prow if i == pr else [a - row[pc] * p for a, p in zip(row, prow)]


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _tableaux(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    cost = draw(st.lists(_rationals, min_size=n, max_size=n))
    pivots = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n + m - 1)), max_size=8))
    return a, cost, pivots


@settings(max_examples=80, deadline=None)
@given(_tableaux())
def test_integer_pivots_match_fraction_gauss_jordan(case):
    a, cost, pivots = case
    m, n = len(a), len(a[0])
    # reference [A | I] with the cost row [c | 0]; integer rows d * [A | I]
    # with d the product of the row scales, and the cost row d * k * [c | 0]
    ref = [list(row) + [Fraction(int(k == i)) for k in range(m)] for i, row in enumerate(a)]
    ref.append(list(cost) + [Fraction(0)] * m)
    d = math.prod(math.lcm(*(v.denominator for v in row)) for row in a)
    k = math.lcm(*(v.denominator for v in cost))
    scale = [1] * m + [k]
    rows = [[int(v * d * s) for v in row] for row, s in zip(ref, scale)]
    for pr, pc in pivots:
        if not ref[pr][pc]:
            continue
        before = list(rows[pr])
        d = backend.pivot_update(rows, pr, pc, _ExactDivisor(d))
        _gauss_jordan(ref, pr, pc)
        assert rows[pr] == before
        assert d == before[pc]
        for row, ref_row, s in zip(rows, ref, scale):
            assert all(type(v) is int for v in row)
            assert [Fraction(v, d * s) for v in row] == ref_row
