"""Known answers and properties of the exact kernels."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from nearfeas import backend


def test_pivot_normalizes_column():
    t, dens = [[2, 4], [3, 5]], [1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 2
    assert t[0] == [2, 4]  # the pivot row is left as it is
    assert t[1] == [0, -2]  # over the new denominator 2: [0, -1]
    assert dens == [2, 2]

    # rows 6 * [1/2, 1, 0] and 6 * [1/3, 0, 1] over d = 2 * 3
    t, dens = [[3, 6, 0], [2, 0, 6]], [6, 6]
    assert backend.pivot_update(t, 0, 0, dens, 6) == 3
    assert t == [[3, 6, 0], [0, -2, 3]]
    assert dens == [3, 3]

    # a pivot equal to d changes only rows with a nonzero in its column
    t, dens = [[1, 2, 1, 0, 0], [3, 4, 0, 1, 0], [0, 5, 0, 0, 1]], [1, 1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 1
    assert t == [[1, 2, 1, 0, 0], [0, -2, -3, 1, 0], [0, 5, 0, 0, 1]]
    assert dens == [1, 1, 1]


def test_rows_with_a_zero_in_the_pivot_column_keep_their_denominator():
    # rows 6 * [1/2, 1, 0], 6 * [1/3, 0, 1] and 6 * [0, 1, 2] over d = 6:
    # a pivot of 3 != d changes only the first two rows
    t, dens = [[3, 6, 0], [2, 0, 6], [0, 6, 12]], [6, 6, 6]
    assert backend.pivot_update(t, 0, 0, dens, 6) == 3
    assert t == [[3, 6, 0], [0, -2, 3], [0, 6, 12]]
    assert dens == [3, 3, 6]

    # the stale row [0, 1, 2] as pivot row is first brought over d = 3, to
    # [0, 3, 6]; its pivot 3 equals d, so rows over d take the sparse update
    assert backend.pivot_update(t, 2, 1, dens, 3) == 3
    assert t == [[3, 0, -12], [0, 0, 7], [0, 3, 6]]  # [1, 0, -4], [0, 0, 7/3]
    assert dens == [3, 3, 3]

    # a row over a stale denominator is updated from its own one: pivoting
    # on 2 in [[2, 1], [1, 1]] (d = 1) leaves the row [0, 5] over 1; the
    # next pivot, 1 in the second row over d = 2, makes it
    # (a * 1 - 5 * p) // 1, where dividing by d = 2 would be inexact
    t, dens = [[2, 1, 0], [1, 1, 1], [0, 5, 1]], [1, 1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 2
    assert t == [[2, 1, 0], [0, 1, 2], [0, 5, 1]] and dens == [2, 2, 1]
    assert backend.pivot_update(t, 1, 1, dens, 2) == 1
    assert t == [[1, 0, -1], [0, 1, 2], [0, 0, -9]]
    assert dens == [1, 1, 1]


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


# half the entries are zero, so that rows sit out pivots
_rationals = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
)


@st.composite
def _tableaux(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    cost = draw(st.lists(_rationals, min_size=n, max_size=n))
    pivots = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n + m - 1)), max_size=10))
    return a, cost, pivots


def _replay(a, cost, pivots):
    """Pivot integer rows over per-row denominators next to a Fraction
    Gauss-Jordan reference and check every row after every pivot.  Every
    denominator is an ``_ExactDivisor``, so each division must be exact.
    Returns the longest run of pivots different from d that one row sat out.
    """
    m = len(a)
    # reference [A | I] with the cost row [c | 0]; integer rows d * [A | I]
    # with d the product of the row scales, and the cost row d * k * [c | 0]
    ref = [list(row) + [Fraction(int(k == i)) for k in range(m)] for i, row in enumerate(a)]
    ref.append(list(cost) + [Fraction(0)] * m)
    d = math.prod(math.lcm(*(v.denominator for v in row)) for row in a)
    k = math.lcm(*(v.denominator for v in cost))
    scale = [1] * m + [k]
    rows = [[int(v * d * s) for v in row] for row, s in zip(ref, scale)]
    d = _ExactDivisor(d)
    dens = [d] * (m + 1)
    idle = [0] * (m + 1)
    longest = 0
    for pr, pc in pivots:
        if not ref[pr][pc]:
            continue
        before, old_dens, old_d = [list(row) for row in rows], list(dens), d
        piv = backend.pivot_update(rows, pr, pc, dens, d)
        _gauss_jordan(ref, pr, pc)
        # the pivot row, brought over the old d, is the new determinant
        assert rows[pr] == [v * d // old_dens[pr] for v in before[pr]]
        assert piv == rows[pr][pc] and dens[pr] == piv
        for i in range(m + 1):
            if i != pr and not before[i][pc]:
                assert rows[i] == before[i] and dens[i] == old_dens[i]
                if piv != old_d:
                    idle[i] += 1
                    longest = max(longest, idle[i])
            else:
                assert dens[i] == piv
                idle[i] = 0
        d = _ExactDivisor(piv)
        dens = [_ExactDivisor(v) for v in dens]
        for row, di, ref_row, s in zip(rows, dens, ref, scale):
            assert all(type(v) is int for v in row)
            assert [Fraction(v, di * s) for v in row] == ref_row
    return longest


# the third row sits out two pivots different from d, then is the pivot row
_IDLE_ROW = (
    [[Fraction(v) for v in row] for row in ([2, 1, 0], [1, 3, 0], [0, 0, 5])],
    [Fraction(1)] * 3,
    [(0, 0), (1, 1), (2, 2), (0, 2)],
)


def test_a_row_sits_out_pivots_until_it_is_used():
    assert _replay(*_IDLE_ROW) == 2


@settings(max_examples=120, deadline=None)
@given(_tableaux())
@example(_IDLE_ROW)
def test_integer_pivots_match_fraction_gauss_jordan(case):
    _replay(*case)
