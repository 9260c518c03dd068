import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nearfeas.errors import PipelineInvariantError
from nearfeas.linalg import Matrix
from nearfeas.rationals import Rat, as_rat
from nearfeas.simplex import (
    LinearProgram,
    LPStatus,
    Tableau,
    _BASIC,
    _LOW,
    _UP,
    _verify_vertex,
    solve_lp_vertex,
)
from structure import nonintegral_support, strictly_between_independent


def int_rows(A):
    """Dense rational rows ``A`` as a ``Matrix`` of integer rows, by the
    reference rule: row i lists the nonzeros of s * A_i, s being the lcm of
    their denominators, the least positive integer that makes the row
    integral."""
    nonzeros = []
    scales = []
    for row in A:
        nz = [(j, v) for j, v in enumerate(map(as_rat, row)) if v]
        s = math.lcm(*(v.denominator for _, v in nz))
        nonzeros.append([(j, int(v * s)) for j, v in nz])
        scales.append(s)
    return Matrix(len(A), len(A[0]) if A else 0, nonzeros, scales)


def dense_rows(mat):
    """A ``Matrix`` rendered as dense rational rows: row i is its nonzeros
    over its scale."""
    rows = []
    for nz, s in zip(mat.nonzeros, mat.scales):
        row = [Rat(0)] * mat.cols
        for j, a in nz:
            row[j] = Rat(a, s)
        rows.append(row)
    return rows


def dense_lp(A, b, lower, upper, objective):
    """The LP with dense rational rows ``A``; every other value is coerced
    to a rational."""
    return LinearProgram(
        int_rows(A), *(tuple(map(as_rat, v)) for v in (b, lower, upper, objective))
    )


def _solve_square(rows, rhs):
    """Exact Gaussian elimination over Fractions; None when inconsistent or
    underdetermined.  Independent of the package simplex."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nr, nc = len(m), len(m[0]) - 1
    row = 0
    piv_cols = []
    for col in range(nc):
        piv = next((i for i in range(row, nr) if m[i][col] != 0), None)
        if piv is None:
            return None  # dependent columns: not a unique basic solution
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for i in range(nr):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        piv_cols.append(col)
        row += 1
        if row == nr:
            break
    for i in range(row, nr):
        if m[i][-1] != 0:
            return None  # inconsistent
    if len(piv_cols) < nc:
        return None
    sol = [Fraction(0)] * nc
    for r, col in enumerate(piv_cols):
        sol[col] = m[r][-1]
    return sol


def lp_optimum_by_enumeration(A, b, lower, upper, obj):
    """Minimum over all basic solutions: choose basic columns and a bound
    pattern for the rest, solve exactly, keep feasible candidates."""
    m, n = len(A), len(A[0])
    best = None
    for k in range(0, min(m, n) + 1):
        for basic in itertools.combinations(range(n), k):
            nonbasic = [j for j in range(n) if j not in basic]
            for pattern in itertools.product((0, 1), repeat=len(nonbasic)):
                xn = {
                    j: (lower[j] if p == 0 else upper[j])
                    for j, p in zip(nonbasic, pattern)
                }
                rhs = [
                    b[i] - sum(A[i][j] * xn[j] for j in nonbasic) for i in range(m)
                ]
                if k == 0:
                    if any(r != 0 for r in rhs):
                        continue
                    xb = []
                else:
                    sub = [[A[i][j] for j in basic] for i in range(m)]
                    xb = _solve_square(sub, rhs)
                    if xb is None:
                        continue
                x = [Fraction(0)] * n
                for j, v in xn.items():
                    x[j] = Fraction(v)
                for j, v in zip(basic, xb):
                    x[j] = v
                if any(not lower[j] <= x[j] <= upper[j] for j in range(n)):
                    continue
                val = sum(obj[j] * x[j] for j in range(n))
                if best is None or val < best:
                    best = val
    return best


def test_trivial_optimum():
    lp = dense_lp([[1, 1]], (1,), (0, 0), (1, 1), (1, 0))
    sol = solve_lp_vertex(lp)
    assert sol.status == LPStatus.OPTIMAL
    assert sol.values == (Rat(0), Rat(1))
    assert sol.objective_value == 0


def test_trivial_infeasible():
    lp = dense_lp([[1, -1]], (2,), (0, 0), (1, 1), (1, 1))
    assert solve_lp_vertex(lp).status == LPStatus.INFEASIBLE


def test_three_var_matches_enumeration():
    A = [[1, 1, 1], [2, 1, 0]]
    lp = dense_lp(
        A, (2, 2), (0, 0, 0), (2, 2, 2), (1, 2, 3)
    )
    sol = solve_lp_vertex(lp)
    assert sol.status == LPStatus.OPTIMAL
    expected = lp_optimum_by_enumeration(
        [[Fraction(v) for v in r] for r in A],
        [Fraction(2), Fraction(2)],
        [Fraction(0)] * 3,
        [Fraction(2)] * 3,
        [Fraction(1), Fraction(2), Fraction(3)],
    )
    assert sol.objective_value == expected


def _random_lp(rng, m, n):
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    lower = [Fraction(rng.randint(-2, 0)) for _ in range(n)]
    upper = [lo + rng.randint(0, 3) for lo in lower]
    x0 = [rng.randint(int(lo), int(up)) for lo, up in zip(lower, upper)]
    if rng.random() < 0.7:
        b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
    else:
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
    obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return A, b, lower, upper, obj


def test_random_lps_match_enumeration():
    rng = random.Random(11)
    solved = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A, b, lower, upper, obj = _random_lp(rng, m, n)
        lp = dense_lp(
            A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
        )
        sol = solve_lp_vertex(lp)
        expected = lp_optimum_by_enumeration(A, b, lower, upper, obj)
        if expected is None:
            assert sol.status == LPStatus.INFEASIBLE
        else:
            assert sol.status == LPStatus.OPTIMAL
            assert sol.objective_value == expected
            solved += 1
    assert solved > 20


def test_vertex_nonsingular_property():
    # the reference tells dependent strictly-between columns from independent ones
    lp = dense_lp([[1, 1]], (1,), (0, 0), (1, 1), (0, 0))
    half = (Rat(1, 2), Rat(1, 2))
    assert not strictly_between_independent(lp, half, range(2))
    assert strictly_between_independent(lp, half, range(1))
    assert strictly_between_independent(lp, (Rat(1), Rat(0)), range(2))
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A, b, lower, upper, obj = _random_lp(rng, m, n)
        lp = dense_lp(
            A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
        )
        sol = solve_lp_vertex(lp)
        if sol.status != LPStatus.OPTIMAL:
            continue
        assert strictly_between_independent(lp, sol.values, range(n))
        for j in range(n):
            if j not in sol.basis:
                assert sol.values[j] in (lp.lower[j], lp.upper[j])
        checked += 1
    assert checked > 10


def test_determinism():
    rng = random.Random(17)
    A, b, lower, upper, obj = _random_lp(rng, 2, 4)
    lp = dense_lp(
        A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
    )
    s1 = solve_lp_vertex(lp)
    s2 = solve_lp_vertex(lp)
    assert s1.values == s2.values
    assert s1.basis == s2.basis
    assert s1.pivots == s2.pivots


def test_nonintegral_support_examples():
    assert nonintegral_support((Rat(0), Rat(1), Rat(2))) == frozenset()
    assert nonintegral_support((Rat(1, 2), Rat(1), Rat(3, 2))) == frozenset({0, 2})
    assert nonintegral_support((Rat(7, 3), Rat(0), Rat(0), Rat(5))) == frozenset({0})


def test_bounds_crossed_rejected():
    with pytest.raises(ValueError, match="bounds crossed"):
        dense_lp([[1]], (0,), (1,), (0,), (0,))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dense_lp([[1, 2]], (0, 0), (0, 0), (1, 1), (0, 0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("objective", (0.5, 1.0), "floating-point"),
        ("lower", (0, 0.0), "floating-point"),
        ("upper", (1.5, 1), "floating-point"),
        ("rhs", (0.5,), "floating-point"),
        ("objective", (1, False), "boolean"),
        ("upper", (True, 1), "boolean"),
        ("rhs", (True,), "boolean"),
        ("objective", ("1", 1), "expected a rational"),
        ("rhs", ("1/2",), "expected a rational"),
    ],
)
def test_a_float_or_a_bool_in_the_lp_raises(field, value, message):
    data = {"rhs": (1,), "lower": (0, 0), "upper": (1, 1), "objective": (1, 1), field: value}
    lp = LinearProgram(int_rows([[1, 1]]), **data)
    with pytest.raises(TypeError, match=message):
        Tableau(lp)


def test_degenerate_lps_terminate_and_match():
    # 0/1 data with tiny right-hand sides maximizes ratio-test ties
    rng = random.Random(41)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = [[Fraction(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 1)) for _ in range(m)]
        lower = [Fraction(0)] * n
        upper = [Fraction(rng.randint(0, 1)) for _ in range(n)]
        obj = [Fraction(rng.randint(-1, 1)) for _ in range(n)]
        lp = dense_lp(
            A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
        )
        sol = solve_lp_vertex(lp)
        expected = lp_optimum_by_enumeration(A, b, lower, upper, obj)
        if expected is None:
            assert sol.status == LPStatus.INFEASIBLE
        else:
            assert sol.status == LPStatus.OPTIMAL
            assert sol.objective_value == expected


def test_rational_entry_lps_match():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 2)
        n = rng.randint(1, 5)
        A = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        lower = [Fraction(rng.randint(-4, 0), 2) for _ in range(n)]
        upper = [lo + Fraction(rng.randint(0, 6), 2) for lo in lower]
        if rng.random() < 0.6:
            x0 = [lo + Fraction(rng.randint(0, int((up - lo) * 2)), 2) for lo, up in zip(lower, upper)]
            b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        else:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        lp = dense_lp(
            A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
        )
        sol = solve_lp_vertex(lp)
        expected = lp_optimum_by_enumeration(A, b, lower, upper, obj)
        if expected is None:
            assert sol.status == LPStatus.INFEASIBLE
        else:
            assert sol.status == LPStatus.OPTIMAL
            assert sol.objective_value == expected


# Degenerate LPs (vertices on bounds, ratio-test ties) with their pivot path
# pinned: (A, b, lower, upper, objective, pivots, basis, values).  The first
# four have fractional rows and objectives and negative residuals at the
# all-lower start, so the integer tableau's denominator leaves 1 (and in the
# first, second and fourth turns negative); the fifth is 0/1 data.  The last
# four have bounds and right-hand sides over different denominators, so the
# scale L of bounds and values, the lcm of those denominators, is 30, 12, 60
# and 30.  The crash start finds no column in the sixth.  In the
# eighth it finds none for the first and third rows, and for the second it
# passes over the fixed x0 and x3 and over x1 and pivots x2 in; phase 1 then
# drives an artificial out of the basis at its nonzero bound.
_PINNED_LPS = [
    (
        [["2/3", 1, "2/3", 2], [0, 0, 0, "-1/2"], [0, "-2/3", 1, 0]],
        [3, "-1/2", "-2/3"],
        [0, -1, -1, 0],
        [2, 1, 0, 1],
        [1, "-3/2", -3, -1],
        3,
        (1, 2, 3),
        [0, 1, 0, 1],
    ),
    (
        [[0, -1, -2, -2, 2], [1, "-2/3", -2, 1, -1], ["2/3", -2, 0, 0, -1]],
        [5, "-4/3", 1],
        [-1, -1, -1, -1, -1],
        [0, 1, 0, 0, 1],
        ["1/3", "1/2", "-3/2", -1, 3],
        3,
        (0, 2, 4),
        [0, -1, 0, -1, 1],
    ),
    (
        [[1, 1, 1, 1], [1, -1, "-1/2", -1]],
        [-2, "3/2"],
        [0, -1, -1, -1],
        [2, 0, 0, 1],
        [-3, "-1/2", "-3/2", 0],
        3,
        (1, 2),
        [0, 0, -1, -1],
    ),
    (
        [[1, 2, -2, "-1/3", "-1/3"], [-1, 2, "-2/3", -1, -1], [1, 2, -1, 2, 2]],
        ["-1/3", -5, 2],
        [0, -1, 0, 0, 0],
        [2, 0, 1, 1, 1],
        [2, 0, -3, 0, 3],
        4,
        (1, 2, 3),
        [2, -1, 0, 1, 0],
    ),
    (
        [[1, 1, 1, 1, 0, 1], [0, 1, 1, 0, 0, 1], [1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0]],
        [1, 1, 1, 0],
        [0] * 6,
        [1] * 6,
        [1, 1, 1, -1, 1, -1],
        5,
        (1, 3, 4, 5),
        [0, 0, 0, 0, 0, 1],
    ),
    (
        [[1, 1, "3/2", 2, 3], ["3/2", -1, -2, 1, 3]],
        [-4, "-1/5"],
        [-4, -1, -1, "-4/3", "-1/2"],
        ["-5/2", 0, 0, -1, "5/6"],
        [-3, 1, -2, 1, 2],
        5,
        (2, 3),
        ["-5/2", -1, "-31/55", "-237/220", "5/6"],
    ),
    (
        [[-1, 0, 2, "-3/2", -3], ["3/2", -3, 2, 0, 2]],
        [5, "-1/4"],
        [0, -1, 0, -4, -1],
        [2, "2/3", "3/2", 1, "-1/2"],
        [1, -1, -3, 1, 3],
        4,
        (0, 3),
        ["1/2", "2/3", "3/2", "1/3", -1],
    ),
    (
        [[2, -1, "2/3", 0, 2], [2, "2/3", -2, "2/3", 1], [0, -2, -1, "2/3", 2]],
        ["3/4", "3/5", "-3/5"],
        [0, -1, -2, -3, "-1/3"],
        [0, 1, 2, -3, "17/3"],
        [2, 1, 2, -2, -2],
        3,
        (1, 2, 4),
        [0, "789/1540", "-537/770", -3, "19/22"],
    ),
    (
        [[1, 1, 3, 0, -2], [-2, 3, "-1/2", -1, 1]],
        ["-4/5", "3/5"],
        [-1, 0, 0, "-1/3", -1],
        ["-1/2", 3, 1, "2/3", 1],
        [-1, -2, 1, 2, 0],
        5,
        (3, 4),
        ["-1/2", 0, 0, "11/20", "3/20"],
    ),
]


def _pinned_lp(case):
    A, b, lower, upper, obj, *_ = case
    return dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj))


@pytest.mark.parametrize("case", _PINNED_LPS)
def test_pinned_pivot_paths(case):
    *_, pivots, basis, values = case
    sol = solve_lp_vertex(_pinned_lp(case))
    assert sol.status == LPStatus.OPTIMAL
    assert sol.pivots == pivots
    assert sol.basis == basis
    assert sol.values == tuple(Rat(v) for v in values)


def test_pinned_scales():
    assert [Tableau(_pinned_lp(case)).L for case in _PINNED_LPS[5:]] == [30, 12, 60, 30]


@pytest.mark.parametrize("case", _PINNED_LPS)
def test_a_fresh_tableau_is_the_lps_own_integer_rows(case):
    # [N | I | residual] over determinant 1: N the stored integer rows, and
    # row i's residual L * (s_i * b_i - N_i . lower) at the all-lower start
    lp = _pinned_lp(case)
    tab = Tableau(lp)
    r, c, L = tab.r, tab.c, tab.L
    assert tab.d == 1 and tab.dens == [1] * (r + 2)
    for i, (row, nz, s, b) in enumerate(zip(tab.T, lp.matrix.nonzeros, lp.matrix.scales, lp.rhs)):
        residual = s * b - sum(a * lp.lower[j] for j, a in nz)
        identity = [int(k == i) for k in range(r)]
        assert row == [dict(nz).get(j, 0) for j in range(c)] + identity + [residual * L]
        assert tab.rhs[i] == s * b * L
        assert (tab.lower[c + i], tab.upper[c + i]) == (min(residual * L, 0), max(residual * L, 0))


def test_a_bound_that_is_not_an_int_raises():
    # the last pinned LP has L = 30, x4 basic at 3/20 and x3 basic at 11/20
    # below its upper bound 2/3; branching bounds are ints, and a rational
    # one, even an integral Rat, leaves the tableau as it was, as does an int
    # one that crosses the other bound
    tab = Tableau(_pinned_lp(_PINNED_LPS[-1]))
    assert tab.solve() == LPStatus.OPTIMAL
    before = (tab.lower[:], tab.upper[:], [row[:] for row in tab.T], tab.L)
    for j, lo, hi, error in (
        (4, Rat(2, 7), None, "not an int"),
        (4, None, Rat(0), "not an int"),
        (4, 0, Rat(1, 11), "not an int"),
        (3, 1, None, "crosses"),
    ):
        with pytest.raises(PipelineInvariantError, match=error):
            tab.reoptimize(j, lo, hi)
        assert (tab.lower, tab.upper, tab.T, tab.L) == before
    assert tab.reoptimize(4, None, 0) == LPStatus.INFEASIBLE


def verify_rational_vertex(lp, values):
    """``_verify_vertex`` on rational values: everything is put over the lcm
    L of the bound and scaled right-hand-side denominators, and the values
    over ``e * L``."""
    sbs = [b * s for b, s in zip(lp.rhs, lp.matrix.scales)]
    L = math.lcm(*(v.denominator for v in (*lp.lower, *lp.upper, *sbs)))
    e = math.lcm(*((v * L).denominator for v in values))
    _verify_vertex(
        lp.matrix.nonzeros,
        [int(sb * L) for sb in sbs],
        [int(v * L) for v in lp.lower],
        [int(v * L) for v in lp.upper],
        [int(v * L * e) for v in values],
        e,
    )


def test_verify_vertex_rejects_one_violation():
    # rows x0 + 2 x2 = 3 and x1 - x2 = 0 with zeros between the nonzeros; the
    # data is integral, so L = 1 and the values are numerators over e
    lp = dense_lp(
        [[1, 0, 2, 0], [0, 1, -1, 0]], (3, 0), (0, 0, 0, 0), (3, 1, 1, 2), (0, 0, 0, 0)
    )
    rows = lp.matrix.nonzeros
    rhs, lower, upper = (3, 0), (0, 0, 0, 0), (3, 1, 1, 2)
    _verify_vertex(rows, rhs, lower, upper, (1, 1, 1, 2), 1)
    _verify_vertex(rows, rhs, lower, upper, (2, 2, 2, 4), 2)
    for values, e, message in (
        ((1, 1, 1, 3), 1, "bounds"),  # x3 above its upper bound, every equation holds
        ((1, 1, 1, -1), 1, "bounds"),  # x3 below its lower bound
        ((1, 0, 1, 0), 1, "equations"),  # only the second equation fails
        ((2, 1, 1, 0), 2, "equations"),  # (1, 1/2, 1/2, 0): only the first equation fails
    ):
        with pytest.raises(PipelineInvariantError, match=message):
            _verify_vertex(rows, rhs, lower, upper, values, e)


def test_verify_rational_vertex_scales_bounds_and_values():
    # x0 + x1 = 5/6 over [1/3, 1/2] x [0, 1]: L = 6, and 1/2 + 1/3 is checked
    # over e * L = 12
    lp = dense_lp([[1, 1]], (Rat(5, 6),), (Rat(1, 3), 0), (Rat(1, 2), 1), (0, 0))
    verify_rational_vertex(lp, (Rat(1, 2), Rat(1, 3)))
    with pytest.raises(PipelineInvariantError, match="bounds"):
        verify_rational_vertex(lp, (Rat(1, 4), Rat(7, 12)))
    with pytest.raises(PipelineInvariantError, match="equations"):
        verify_rational_vertex(lp, (Rat(1, 2), Rat(1, 4)))


def _basis_determinant(lp, basis):
    """|det| of the basis columns of ``[N | I]``, by Fraction elimination;
    row i of ``[N | I]`` is ``N_i = s_i * A_i`` (the ``Matrix`` nonzeros)
    followed by 1 in artificial column i."""
    r, c = lp.matrix.rows, lp.matrix.cols
    m = []
    for i, nz in enumerate(lp.matrix.nonzeros):
        row = dict(nz)
        row[c + i] = 1
        m.append([Fraction(row.get(b, 0)) for b in basis])
    det = Fraction(1)
    for col in range(r):
        piv = next(i for i in range(col, r) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        det *= m[col][col]
        for i in range(col + 1, r):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return abs(det)


@st.composite
def _lp_and_cuts(draw):
    """A small LP with rational rows (so the row scales exceed 1), rational
    bounds and right-hand side (half the time that of a point inside the
    bounds), and up to three cuts for ``int_cut``."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    lower = [draw(st.fractions(min_value=-2, max_value=0, max_denominator=4)) for _ in range(n)]
    upper = [draw(st.fractions(min_value=lo, max_value=lo + 3, max_denominator=4)) for lo in lower]
    if draw(st.booleans()):
        x0 = [
            draw(st.fractions(min_value=lo, max_value=hi, max_denominator=4))
            for lo, hi in zip(lower, upper)
        ]
        b = [sum((A[i][j] * x0[j] for j in range(n)), Fraction(0)) for i in range(m)]
    else:
        b = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)) for _ in range(m)]
    obj = [draw(st.integers(-3, 3)) for _ in range(n)]
    cut = st.tuples(st.integers(0, 4), st.booleans(), st.integers(1, 2))
    cuts = draw(st.lists(cut, max_size=3))
    return dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj)), cuts


def int_cut(tab, rank, up, k):
    """The bound branch-and-bound puts on an optimal tableau's structural
    basic variable of the given rank, moved ``k - 1`` further toward its far
    bound: ``(j, floor(v) + k, None)`` up and ``(j, None, floor(v) + 1 - k)``
    down, for the variable's value v.  None when there is no such variable,
    v is integral or the bound leaves the variable's current range."""
    basic = sorted(j for j in tab.basis if j < tab.c)
    if not basic:
        return None
    j = basic[rank % len(basic)]
    v = tab.vertex().values[j]
    if v.denominator == 1:
        return None
    if up:
        lo = math.floor(v) + k
        return (j, lo, None) if lo * tab.L <= tab.upper[j] else None
    hi = math.floor(v) + 1 - k
    return (j, None, hi) if hi * tab.L >= tab.lower[j] else None


def _reference_crash(tab):
    """The crash start as first written: for each row, the candidate columns
    in order, each tested by one walk over its own move and the rows with a
    nonzero in its column.  The reference for ``Tableau._crash``."""
    T, lower, upper, stat, basis = tab.T, tab.lower, tab.upper, tab.stat, tab.basis
    c, n = tab.c, tab.n
    count = collections.Counter(j for nz in tab.nonzeros for j, _ in nz)
    order = sorted(range(c), key=lambda j: (count[j], j))
    for i in range(tab.r):
        row = T[i]
        v = row[n]
        for j in [j for j in order if row[j] and stat[j] != _BASIC and lower[j] != upper[j]]:
            a = row[j]
            moved = (
                (t[n], t[j], dk, b) for t, dk, b in zip(T, tab.dens, basis) if t[j] and t is not row
            )
            start = lower[j] if stat[j] == _LOW else upper[j]
            for t, f, dk, b in itertools.chain([(start, -1, 1, j)], moved):
                num, den = t * a - f * v, dk * a
                lo, hi = lower[b] * den, upper[b] * den
                if not (lo <= num <= hi if den > 0 else hi <= num <= lo):
                    break
            else:
                tab._pivot(i, j, _LOW if lower[c + i] == 0 else _UP)
                break


def _crashed_as_the_reference(lp):
    """A tableau of lp after ``Tableau._crash``, checked to have the basis,
    statuses, rows and crash pivots of ``_reference_crash``."""
    tab, ref = Tableau(lp), Tableau(lp)
    tab._crash()
    _reference_crash(ref)
    assert (tab.pivots, tab.basis, tab.stat) == (ref.pivots, ref.basis, ref.stat)
    assert (tab.T, tab.dens, tab.d) == (ref.T, ref.dens, ref.d)
    return tab


@settings(max_examples=200, deadline=None)
@given(_lp_and_cuts())
def test_the_crash_start_keeps_every_basic_value_within_its_bounds(case):
    tab = _crashed_as_the_reference(case[0])
    n = tab.n
    for row, di, b in zip(tab.T, tab.dens, tab.basis):
        assert tab.lower[b] <= Fraction(row[n], di) <= tab.upper[b]
    # an artificial that left the basis sits at 0
    for j in range(tab.c, n):
        if j not in tab.basis:
            assert (tab.lower[j] if tab.stat[j] == _LOW else tab.upper[j]) == 0


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 5))
def test_the_crash_start_matches_the_reference_on_integer_lps(rnd, m, n):
    A, b, lower, upper, obj = _random_lp(rnd, m, n)
    lp = dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj))
    _crashed_as_the_reference(lp)


@pytest.mark.parametrize("case", _PINNED_LPS)
def test_the_crash_start_matches_the_reference_on_pinned_lps(case):
    _crashed_as_the_reference(_pinned_lp(case))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 5))
def test_solves_from_the_crash_start_match_enumeration(rnd, m, n):
    A, b, lower, upper, obj = _random_lp(rnd, m, n)
    sol = solve_lp_vertex(dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj)))
    expected = lp_optimum_by_enumeration(A, b, lower, upper, obj)
    if expected is None:
        assert sol.status == LPStatus.INFEASIBLE
    else:
        assert sol.status == LPStatus.OPTIMAL
        assert sol.objective_value == expected


@settings(max_examples=200, deadline=None)
@given(_lp_and_cuts())
# x0 - x1 = 2 over [0, 1]^2
@example((dense_lp([[1, -1]], (2,), (0, 0), (1, 1), (1, 1)), []))
# x0 = 1 and 2 x0 + x1 / 2 = 1 over [0, 1] x [0, 0]: rows of scales 1 and 2,
# so the multipliers need phase 1's weights k1 / s_i
@example((dense_lp([[1, 0], [2, Rat(1, 2)]], (1, 1), (0, 0), (1, 0), (0, 0)), []))
def test_every_cold_infeasible_lp_is_certified(case):
    # phase 1's multipliers pass the Farkas check whenever it ends infeasible
    lp = case[0]
    check = Tableau._certify_infeasible
    calls = []

    def counted(tab, y):
        calls.append(y)
        check(tab, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tableau, "_certify_infeasible", counted)
        status = Tableau(lp).solve()
    assert len(calls) == (status == LPStatus.INFEASIBLE)


# every pivot is checked: the crash start's, both phases' and the dual
# simplex's; the pinned eighth LP makes a crash pivot and a phase-1 pivot
@settings(max_examples=150, deadline=None)
@given(_lp_and_cuts())
@example((_pinned_lp(_PINNED_LPS[7]), [(0, True, 1)]))
def test_every_pivot_keeps_rows_integral_over_d_and_d_the_basis_determinant(case):
    lp, cuts = case
    pivot = Tableau._pivot

    def checked_pivot(tab, leave, q, leave_stat):
        pivot(tab, leave, q, leave_stat)
        for row, di in zip(tab.T, tab.dens):
            assert all(v * tab.d % di == 0 for v in row)
        assert abs(tab.d) == _basis_determinant(lp, tab.basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tableau, "_pivot", checked_pivot)
        tab = Tableau(lp)
        status = tab.solve()
        for rank, up, k in cuts:
            if status != LPStatus.OPTIMAL:
                break
            cut = int_cut(tab, rank, up, k)
            if cut is not None:
                status = tab.reoptimize(*cut)
