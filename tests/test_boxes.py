import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas.boxes import partition_columns, partition_config_columns, snap_delta
from nearfeas.linalg import Matrix
from nearfeas.rationals import Rat


def test_snap_delta():
    assert snap_delta(Rat(1, 2)) == Rat(1, 2)
    assert snap_delta(Rat(2, 5)) == Rat(1, 3)  # 1/ceil(5/2)
    assert snap_delta(Rat(3)) == Rat(1)
    with pytest.raises(ValueError):
        snap_delta(Rat(0))


def _reference_box_index(vec, delta, scale):
    """The cell index computed entry by entry in rationals, re-snapping delta
    for every column: the definition the partitions must keep."""
    delta = snap_delta(delta)
    cells = math.ceil(1 / delta)
    side = delta * scale
    return tuple(max(math.ceil(v / side), 1 - cells) for v in vec)


def _reference_corner(idx, delta, scale):
    """The lower corner of a cell, entry by entry: (lambda_i - 1) * delta * scale."""
    side = snap_delta(delta) * scale
    return tuple((lam - 1) * side for lam in idx)


def _reference_groups(columns, delta, scale):
    groups = {}
    for j, col in enumerate(columns):
        groups.setdefault(_reference_box_index(col, delta, scale), []).append(j)
    return groups


def _rats(vec, unit):
    """A partition's integer vector as the rationals it stands for."""
    return tuple(Rat(v, unit) for v in vec)


def _assert_splits(col, canon, residual, unit, side):
    """The integer corner and residual over ``unit`` add up to the column, and
    every residual lies in [0, S], S being the cell side over the unit."""
    assert tuple(Rat(c + r, unit) for c, r in zip(canon, residual)) == col
    assert all(0 <= r <= side * unit for r in residual)


def _assert_matches_reference(rows, delta, blocks=1):
    """Both partitions agree with the references on the columns of ``rows``:
    ``partition_columns`` on the matrix, ``partition_config_columns`` on its
    columns dealt round-robin into ``blocks`` blocks.  Returns the former."""
    H = Matrix.from_rows(rows)
    columns = [H.column(j) for j in range(H.cols)]
    scale = max((abs(v) for col in columns for v in col), default=Rat(0)) or Rat(1)
    side = snap_delta(delta) * scale
    part = partition_columns(H, delta)
    assert part.scale == scale and part.delta == snap_delta(delta)
    assert part.groups == _reference_groups(columns, delta, scale)
    for idx, canon in part.canonicals.items():
        assert _rats(canon, part.unit) == _reference_corner(idx, delta, scale)
    for col, residual in zip(columns, part.residuals):
        canon = part.canonicals[_reference_box_index(col, delta, scale)]
        _assert_splits(col, canon, residual, part.unit, side)

    mats = [
        Matrix.from_rows([[row[j] for j in range(b, H.cols, blocks)] for row in rows])
        for b in range(min(blocks, H.cols))
    ]
    cpart = partition_config_columns(mats, delta)
    assert cpart.scale == scale and cpart.delta == part.delta
    expected = {}
    for i, m in enumerate(mats):
        key = tuple(_reference_box_index(m.column(j), delta, scale) for j in range(m.cols))
        expected.setdefault(key, []).append(i)
        canon = cpart.canonical_matrices[key]
        for j in range(m.cols):
            _assert_splits(m.column(j), canon[j], cpart.residual_matrices[i][j], cpart.unit, side)
    assert cpart.type_groups == expected
    for key, canon in cpart.canonical_matrices.items():
        assert tuple(_rats(c, cpart.unit) for c in canon) == tuple(
            _reference_corner(idx, delta, scale) for idx in key
        )
    return part


def test_box_index_examples():
    part = _assert_matches_reference(
        [[0, 1, Rat(3, 10)], [0, -1, Rat(-1, 5)]], Rat(1, 2), blocks=3
    )
    assert list(part.groups) == [(0, 0), (2, -1), (1, 0)]


def test_canonical_vector_examples():
    part = _assert_matches_reference(
        [[Rat(1, 2), 0, 1], [Rat(1, 2), 0, -1]], Rat(1, 2), blocks=3
    )
    assert {idx: _rats(c, part.unit) for idx, c in part.canonicals.items()} == {
        (1, 1): (Rat(0), Rat(0)),
        (0, 0): (Rat(-1, 2), Rat(-1, 2)),
        (2, -1): (Rat(1, 2), Rat(-1)),
    }


def test_all_zero_matrix_has_scale_one():
    part = _assert_matches_reference([[0, 0, 0], [0, 0, 0]], Rat(1, 2))
    assert part.scale == 1
    assert part.groups == {(0, 0): [0, 1, 2]}
    assert tuple(_rats(r, part.unit) for r in part.residuals) == ((Rat(1, 2), Rat(1, 2)),) * 3


def test_column_at_minus_scale_clamps_into_range():
    part = _assert_matches_reference([[-2, 1], [0, -2]], Rat(1, 2), blocks=2)
    # -scale's cell would be -2; it clamps to -1, whose corner is -scale
    assert list(part.groups) == [(-1, 0), (1, -1)]
    assert _rats(part.residuals[1], part.unit) == (Rat(1), Rat(0))


def test_cell_edge_lands_in_the_lower_cell():
    part = _assert_matches_reference([[Rat(1, 2), 1, Rat(-1, 2)]], Rat(1, 2), blocks=2)
    assert list(part.groups) == [(1,), (2,), (-1,)]
    # an entry on an upper edge leaves a residual of exactly the cell side
    assert tuple(_rats(r, part.unit) for r in part.residuals) == ((Rat(1, 2),),) * 3


def test_coprime_denominators_share_one_grid():
    part = _assert_matches_reference(
        [[Rat(1, 3), Rat(-1, 7), Rat(2, 21)], [Rat(2, 7), Rat(1, 3), Rat(-1, 3)]],
        Rat(1, 4),
        blocks=2,
    )
    assert part.scale == Rat(1, 3)
    assert list(part.groups) == [(4, 4), (-1, 4), (2, -3)]


def test_snapped_delta():
    part = _assert_matches_reference([[1, Rat(1, 3), -1, Rat(2, 5)]], Rat(2, 5), blocks=2)
    assert part.delta == Rat(1, 3)
    assert list(part.groups) == [(3,), (1,), (-2,), (2,)]
    assert _rats(part.canonicals[(-2,)], part.unit) == (Rat(-1),)


def test_partition_identical_columns_share_group():
    H = Matrix.from_rows([[1, 1], [0, 0]])
    part = partition_columns(H, Rat(1, 2))
    assert len(part.groups) == 1
    for j in range(2):
        idx = _reference_box_index(H.column(j), part.delta, part.scale)
        side = part.delta * part.scale
        _assert_splits(H.column(j), part.canonicals[idx], part.residuals[j], part.unit, side)


def test_partition_close_columns_two_groups():
    H = Matrix.from_rows([[1, Rat(9, 10)], [0, Rat(1, 10)]])
    part = partition_columns(H, Rat(1, 2))
    assert len(part.groups) == 2


def test_partition_covers_all_columns():
    rng = random.Random(5)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        H = Matrix.from_rows(
            [[Rat(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
        )
        part = partition_columns(H, Rat(1, 3))
        assert sum(len(g) for g in part.groups.values()) == n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(2, 5),
    st.randoms(use_true_random=False),
)
def test_partition_invariants(m, n, inv_delta, rnd):
    H = Matrix.from_rows(
        [[Rat(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    )
    delta = Rat(1, inv_delta)
    part = partition_columns(H, delta)
    side = part.delta * part.scale
    for j in range(n):
        col = H.column(j)
        idx = _reference_box_index(col, part.delta, part.scale)
        # exact reconstruction and residual bound
        _assert_splits(col, part.canonicals[idx], part.residuals[j], part.unit, side)
    # two columns in one group differ by at most the cell side, componentwise
    for members in part.groups.values():
        for a in members:
            for b in members:
                for va, vb in zip(H.column(a), H.column(b)):
                    assert abs(va - vb) <= side


def test_config_partition_identical_blocks():
    mats = [Matrix.from_rows([[1, 0]]), Matrix.from_rows([[1, 0]])]
    part = partition_config_columns(mats, Rat(1, 2))
    assert len(part.type_groups) == 1
    (members,) = part.type_groups.values()
    assert members == [0, 1]


def test_config_partition_distinct_types():
    mats = [Matrix.from_rows([[1, 0]]), Matrix.from_rows([[0, 1]])]
    part = partition_config_columns(mats, Rat(1, 2))
    assert len(part.type_groups) == 2


def test_config_partition_occupancy_bound():
    rng = random.Random(9)
    mats = [
        Matrix.from_rows([[Rat(rng.randint(-2, 2)) for _ in range(2)]]) for _ in range(6)
    ]
    part = partition_config_columns(mats, Rat(1, 4))
    assert len(part.type_groups) <= 6
    # residual bound entrywise
    side = part.delta * part.scale
    for resid in part.residual_matrices:
        for col in resid:
            assert all(abs(Rat(v, part.unit)) <= side for v in col)


def test_config_partition_row_count_mismatch():
    with pytest.raises(ValueError, match="row count"):
        partition_config_columns(
            [Matrix.from_rows([[1]]), Matrix.from_rows([[1], [2]])], Rat(1, 2)
        )
    # blocks of different widths are valid and never share a type
    part = partition_config_columns(
        [Matrix.from_rows([[1]]), Matrix.from_rows([[1, 1]])], Rat(1, 2)
    )
    assert sorted(len(key) for key in part.type_groups) == [1, 2]


_entries = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(_entries, min_size=1, max_size=6), min_size=1, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) == 1
    ),
    st.fractions(min_value=Rat(1, 12), max_value=2, max_denominator=12),
    st.integers(1, 3),
)
def test_partitions_match_the_per_column_box_index(rows, delta, blocks):
    _assert_matches_reference(rows, delta, blocks)
