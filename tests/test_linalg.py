import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas.linalg import Matrix
from nearfeas.rationals import Rat
from structure import rank


def _det(rows):
    """Laplace-expansion determinant over Fractions; the independent oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        acc += term if j % 2 == 0 else -term
    return acc


def _rank_by_minors(rows):
    """Largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ris in itertools.combinations(range(m), k):
            for cjs in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                if _det(sub) != 0:
                    return k
    return 0


def test_rank_identity():
    assert rank([[1, 0], [0, 1]]) == 2


def test_rank_proportional_rows():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0


def test_rank_random_vs_minors():
    rng = random.Random(42)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        assert rank(rows) == _rank_by_minors(rows)


def test_rank_rational_vs_minors():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        assert rank(rows) == _rank_by_minors(rows)


def test_nonsingular_examples():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 1], [1, 1]]) < 2
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2


@st.composite
def _matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    return draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_bounded_and_transpose_invariant(rows):
    r = rank(rows)
    assert r == _rank_by_minors(rows)
    assert r <= min(len(rows), len(rows[0]))
    assert r == rank([list(col) for col in zip(*rows)])


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_dependent_column_preserves_rank(rows, coeffs):
    coeffs = (coeffs * len(rows[0]))[: len(rows[0])]
    extended = [[*row, sum(c * a for c, a in zip(coeffs, row))] for row in rows]
    assert rank(extended) == _rank_by_minors(extended) == rank(rows)


def test_matrix_immutable_and_validated():
    m = Matrix.from_rows([[1, 2]])
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(ValueError):
        Matrix(2, 2, [[(0, 1)]], [1])
    with pytest.raises(ValueError):
        Matrix(1, 2, [[(0, 1)]], [0])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])


def test_inf_norm_and_matvec():
    m = Matrix.from_rows([["1/2", -3], [0, 2]])
    assert m.inf_norm() == 3
    assert m.matvec((Rat(2), Rat(1))) == (Rat(-2), Rat(2))
    with pytest.raises(ValueError):
        m.matvec((Rat(1),))


# rationals with mixed denominators, negative entries and zeros
_RATS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 7]))


@st.composite
def _rational_matrix_and_vector(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    rows = [draw(st.lists(_RATS, min_size=n, max_size=n)) for _ in range(m)]
    x = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    factors = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    return rows, n, x, factors


def _least_scale(row):
    return min(k for k in range(1, 85) if all((a * k).denominator == 1 for a in row))


@settings(max_examples=150, deadline=None)
@given(_rational_matrix_and_vector())
def test_integer_rows_match_a_fraction_reference(case):
    """matvec, inf_norm and the stored integer rows agree with plain
    Fraction arithmetic on the entries; the views read the entries back, and
    the same rationals over other scales give an equal matrix."""
    rows, n, x, factors = case
    m = len(rows)
    # each row over its least scale times a factor, so not reduced in general
    scales = [_least_scale(row) * k for row, k in zip(rows, factors)]
    mat = Matrix(m, n, [[(j, int(a * s)) for j, a in enumerate(row) if a]
                        for row, s in zip(rows, scales)], scales)
    expected = tuple(sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows)
    assert mat.matvec(x) == expected
    assert mat.inf_norm() == max((abs(a) for row in rows for a in row), default=Fraction(0))
    assert (mat.rows, mat.cols) == (m, n)
    for i, (row, nz, s) in enumerate(zip(rows, mat.nonzeros, mat.scales)):
        # s is the least scale that makes the row integral, so the row is
        # reduced by the gcd of its scale and its entries
        assert s == _least_scale(row)
        assert nz == tuple((j, int(a * s)) for j, a in enumerate(row) if a)
        assert mat.row(i) == tuple(row)
    for j in range(n):
        assert mat.column(j) == tuple(row[j] for row in rows)
    # the repr is the constructor call, so a falsifying matrix pastes back
    assert eval(repr(mat)) == mat
    if m:
        fresh = Matrix.from_rows(rows)
        assert fresh == mat and hash(fresh) == hash(mat)
    # differently scaled integer rows of the same rationals are equal
    half = Matrix(1, 1, [[(0, 2)]], [4])
    assert half == Matrix(1, 1, [[(0, 1)]], [2]) == Matrix.from_rows([[Rat(1, 2)]])
    assert hash(half) == hash(Matrix(1, 1, [[(0, 1)]], [2]))
    assert half != Matrix(1, 1, [[(0, 1)]], [4])
