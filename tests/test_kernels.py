"""Known answers and properties of the exact kernels."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from nearfeas import backend


def test_pivot_normalizes_column():
    # the pivot row [2, 4] is [1, 2] over h = 1, which divides every entry,
    # so the other row keeps its denominator: [3, 5] - 3 * [1, 2]
    t, dens = [[2, 4], [3, 5]], [1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 2
    assert t == [[2, 4], [0, -1]]  # the pivot row is left as it is, over 2
    assert dens == [2, 1]

    # rows 6 * [1/2, 1, 0] and 6 * [1/3, 0, 1] over d = 6: the pivot 3 != d,
    # and the second row loses 2 * [1, 2, 0], its values [0, -2/3, 1]
    t, dens = [[3, 6, 0], [2, 0, 6]], [6, 6]
    assert backend.pivot_update(t, 0, 0, dens, 6) == 3
    assert t == [[3, 6, 0], [0, -4, 6]]
    assert dens == [3, 6]

    # the pivot row [2, 1] has least denominator h = 2, which divides 4 but
    # not 1: the row with 1 is rewritten in full over the pivot 2 (values
    # [0, 1/2, 1]), the row with 4 loses 2 * [2, 1, 0] over its own 1
    t, dens = [[2, 1, 0], [1, 1, 1], [4, 0, 1], [0, 5, 1]], [1, 1, 1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 2
    assert t == [[2, 1, 0], [0, 1, 2], [0, -2, 1], [0, 5, 1]]
    assert dens == [2, 2, 1, 1]


def test_rows_with_a_zero_in_the_pivot_column_keep_their_denominator():
    # rows 6 * [1/2, 1, 0], 6 * [1/3, 0, 1] and 6 * [0, 1, 2] over d = 6:
    # a pivot in column 0 leaves the third row as it is
    t, dens = [[3, 6, 0], [2, 0, 6], [0, 6, 12]], [6, 6, 6]
    assert backend.pivot_update(t, 0, 0, dens, 6) == 3
    assert t == [[3, 6, 0], [0, -4, 6], [0, 6, 12]]
    assert dens == [3, 6, 6]

    # the stale row [0, 1, 2] as pivot row is first brought over d = 3, to
    # [0, 3, 6]; the other rows keep their denominators
    assert backend.pivot_update(t, 2, 1, dens, 3) == 3
    assert t == [[3, 0, -12], [0, 0, 14], [0, 3, 6]]  # [1, 0, -4], [0, 0, 7/3]
    assert dens == [3, 6, 3]

    # a row over a stale denominator is updated from its own one: pivoting
    # on 2 in [[2, 1], [1, 1]] (d = 1) leaves the row [0, 5] over 1; the
    # next pivot, 1 in the second row over d = 2, takes 5 * [0, 1, 2] from
    # it over 1, where dividing by d = 2 would be inexact
    t, dens = [[2, 1, 0], [1, 1, 1], [0, 5, 1]], [1, 1, 1]
    assert backend.pivot_update(t, 0, 0, dens, 1) == 2
    assert t == [[2, 1, 0], [0, 1, 2], [0, 5, 1]] and dens == [2, 2, 1]
    assert backend.pivot_update(t, 1, 1, dens, 2) == 1
    assert t == [[2, 0, -2], [0, 1, 2], [0, 0, -9]]  # [1, 0, -1], [0, 1, 2]
    assert dens == [2, 1, 1]


def test_the_pivot_is_the_old_d_times_its_true_value():
    # the first row [2, 0, -2] over 2 is stale at d = 1: brought over d it is
    # [1, 0, -1], so the pivot in column 2 is 1 * (-2 / 2) = -1; both other
    # rows keep their denominators through a pivot that differs from d
    t, dens = [[2, 0, -2], [0, 1, 2], [0, 0, -9]], [2, 1, 1]
    assert backend.pivot_update(t, 0, 2, dens, 1) == -1
    assert t == [[1, 0, -1], [2, 1, 0], [-9, 0, 0]]
    assert dens == [-1, 1, 1]


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


def _least_denominator(values):
    return math.lcm(*(v.denominator for v in values))


def _replay(a, cost, pivots):
    """Pivot integer rows over per-row denominators next to a Fraction
    Gauss-Jordan reference and check every row after every pivot.  Every
    denominator is an ``_ExactDivisor``, so each division must be exact.
    Returns the longest run of pivots different from d that one row sat out,
    and the number of rows that kept their denominator through a pivot
    different from d although their entry in its column was not zero.
    """
    m = len(a)
    # reference [A | I] with the cost row [c | 0]; integer rows d * [A | I]
    # with d the product of the row scales, and the cost row d * k * [c | 0]
    ref = [list(row) + [Fraction(int(k == i)) for k in range(m)] for i, row in enumerate(a)]
    ref.append(list(cost) + [Fraction(0)] * m)
    d = math.prod(_least_denominator(row) for row in a)
    k = _least_denominator(cost)
    scale = [1] * m + [k]
    rows = [[int(v * d * s) for v in row] for row, s in zip(ref, scale)]
    d = _ExactDivisor(d)
    dens = [d] * (m + 1)
    idle = [0] * (m + 1)
    longest = kept = 0
    for pr, pc in pivots:
        if not ref[pr][pc]:
            continue
        before, old_dens, old_d = [list(row) for row in rows], list(dens), d
        true_pivot = ref[pr][pc]
        piv = backend.pivot_update(rows, pr, pc, dens, d)
        _gauss_jordan(ref, pr, pc)
        # the pivot row, brought over the old d, is the new determinant
        assert piv == old_d * true_pivot
        assert rows[pr] == [v * d // old_dens[pr] for v in before[pr]]
        assert piv == rows[pr][pc] and dens[pr] == piv
        # a row keeps its denominator exactly when the least denominator of
        # the pivot row's values divides its entry in the pivot column
        h = _least_denominator(ref[pr])
        for i in range(m + 1):
            if i == pr:
                continue
            f = before[i][pc]
            if not f:
                assert rows[i] == before[i] and dens[i] == old_dens[i]
                if piv != old_d:
                    idle[i] += 1
                    longest = max(longest, idle[i])
                continue
            idle[i] = 0
            if f % h:
                assert dens[i] == piv
            else:
                assert dens[i] == old_dens[i]
                changed = [j for j, (u, v) in enumerate(zip(before[i], rows[i])) if u != v]
                assert all(rows[pr][j] for j in changed)
                kept += piv != old_d
        d = _ExactDivisor(piv)
        dens = [_ExactDivisor(v) for v in dens]
        for row, di, ref_row, s in zip(rows, dens, ref, scale):
            assert all(type(v) is int for v in row)
            assert [Fraction(v, di * s) for v in row] == ref_row
            # over d, each row is Edmonds' integral row
            assert all(v * d % di == 0 for v in row)
    return longest, kept


# the third row sits out two pivots different from d, then is the pivot row
_IDLE_ROW = (
    [[Fraction(v) for v in row] for row in ([2, 1, 0], [1, 3, 0], [0, 0, 5])],
    [Fraction(1)] * 3,
    [(0, 0), (1, 1), (2, 2), (0, 2)],
)


def test_a_row_sits_out_pivots_until_it_is_used():
    assert _replay(*_IDLE_ROW) == (2, 1)


# the first pivot's row [2, 3, 1, 0, 0] has least denominator 2, which
# divides the second row's 4 but not the third row's 1; the second pivot keeps
# one more row
_KEPT_ROW = (
    [[Fraction(v) for v in row] for row in ([2, 3], [4, 1], [1, 1])],
    [Fraction(1), Fraction(-1)],
    [(0, 0), (1, 1)],
)


def test_a_row_the_pivot_row_allows_keeps_its_denominator():
    assert _replay(*_KEPT_ROW) == (0, 2)


@settings(max_examples=120, deadline=None)
@given(_tableaux())
@example(_IDLE_ROW)
@example(_KEPT_ROW)
def test_integer_pivots_match_fraction_gauss_jordan(case):
    _replay(*case)
