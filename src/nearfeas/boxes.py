"""Uniform box discretization of column vectors.

Columns living in [-scale, scale]^m are assigned to axis-aligned cells of
side delta*scale; each cell's lower corner is its canonical vector, and every
column decomposes exactly as canonical + residual with every residual entry
in [0, delta*scale].  Grouping columns (or whole per-block column matrices)
by cell underlies all three solver pipelines, and ``coupled_model`` builds
the one mixed model all three solve over such partitions; its
``CoupledModel`` says where each part's columns sit, so a pipeline reads the
part it rounds straight off the mixed optimum.

Each partition computes on one integer grid.  With ``den`` the lcm of the
row scales of the matrices it partitions, an entry v = n / s of a row over
scale s is the integer a = n * (den // s) = v * den; S is the largest |a|
(``den`` when every entry is 0, so the scale S/den is 1), and with cells =
1/delta the cell index of an entry is
max(ceil(a * cells / S), 1 - cells): values on a cell edge land in the lower
cell, and -scale, which has no lower cell, clamps up into range.  A
partition holds its corners and residuals as integers over its ``unit``
cells * den: a corner entry is (lam - 1) * S and a residual entry r = a *
cells - (lam - 1) * S.  ``coupled_model`` lifts them straight into the
model's integer rows, so no entry is ever built as a rational.  The check
0 <= r <= S stays: it is the cell-side bound the pipelines' error analysis
rests on, and one integer comparison per entry keeps a wrong index from ever
reaching a model.
"""

import math
from dataclasses import dataclass

from .branch_bound import MixedModel
from .errors import PipelineInvariantError
from .linalg import Matrix
from .rationals import Rat, as_rat
from .simplex import LinearProgram


def snap_delta(delta):
    """Largest reciprocal of an integer that is <= delta, so the grid tiles exactly."""
    delta = as_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return Rat(1, math.ceil(1 / delta))


def _grid(mats, delta):
    """The integer grid of a partition of the columns of ``mats``: its
    snapped delta, its unit, and its splitter, which maps a matrix
    to each column's cell (an int tuple), the cell's lower corner and the
    residual column - corner, both as int tuples over the unit."""
    delta = snap_delta(delta)
    cells = delta.denominator
    den = math.lcm(*(s for m in mats for s in m.scales))
    top = max((abs(a) * (den // s) for m in mats for nz, s in zip(m.nonzeros, m.scales)
               for _, a in nz), default=0) or den
    least = 1 - cells  # -scale's cell
    corners = {}

    def split(mat):
        lifted = [(dict(nz), den // s * cells) for nz, s in zip(mat.nonzeros, mat.scales)]
        out = []
        for j in range(mat.cols):
            nums = [row.get(j, 0) * f for row, f in lifted]
            cell = tuple(max(-(-a // top), least) for a in nums)
            corner = corners.get(cell)
            if corner is None:
                corner = corners[cell] = tuple((lam - 1) * top for lam in cell)
            residual = tuple(a - c for a, c in zip(nums, corner))
            if not all(0 <= r <= top for r in residual):
                raise PipelineInvariantError("residual outside its cell")
            out.append((cell, corner, residual))
        return out

    return delta, cells * den, split


@dataclass(frozen=True)
class BoxPartition:
    delta: object  # snapped
    unit: int  # the denominator of every canonical and residual entry
    groups: dict  # cell (int tuple) -> list of column indices
    canonicals: dict  # cell -> canonical vector, ints over unit
    residuals: tuple  # per column: column - canonical(its cell), ints over unit


def partition_columns(mat, delta):
    """Group the columns of mat by cell; only occupied cells materialize."""
    if mat.cols == 0:
        raise ValueError("matrix has no columns")
    delta, unit, split = _grid([mat], delta)
    groups = {}
    canonicals = {}
    residuals = []
    for j, (cell, corner, residual) in enumerate(split(mat)):
        groups.setdefault(cell, []).append(j)
        canonicals[cell] = corner
        residuals.append(residual)
    return BoxPartition(delta, unit, groups, canonicals, tuple(residuals))


@dataclass(frozen=True)
class ConfigBoxPartition:
    delta: object
    unit: int  # the denominator of every canonical and residual entry
    type_groups: dict  # tuple of cells, one per column -> list of block indices
    canonical_matrices: dict  # type -> canonical vectors (one per column), ints over unit
    residual_matrices: tuple  # per block: residual vectors, ints over unit


def partition_config_columns(mats, delta):
    """Group whole per-block column matrices by the tuple of their cells.

    Blocks whose matrices land columnwise in the same cells share one type,
    so the members of a type have equal widths; only occurring types
    materialize.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("no matrices")
    for m in mats:
        if m.rows != mats[0].rows:
            raise ValueError("dimension mismatch: blocks differ in row count")
    delta, unit, split = _grid(mats, delta)
    type_groups = {}
    canonical_matrices = {}
    residual_matrices = []
    for i, m in enumerate(mats):
        columns = split(m)
        key = tuple(cell for cell, _, _ in columns)
        if key not in type_groups:
            type_groups[key] = []
            canonical_matrices[key] = tuple(corner for _, corner, _ in columns)
        type_groups[key].append(i)
        residual_matrices.append(tuple(residual for _, _, residual in columns))
    return ConfigBoxPartition(
        delta, unit, type_groups, canonical_matrices, tuple(residual_matrices)
    )


@dataclass(frozen=True)
class CoupledModel:
    """A mixed model of ``coupled_model``, the partitions it was built over,
    and where each part sits: the one record of the model's layout."""

    mixed: MixedModel
    config_part: object  # ConfigBoxPartition of the selections, or None
    part: object  # BoxPartition of the grouped variables, or None
    z: tuple  # per block: the range of its selection columns
    y: tuple  # per type: the range of its count columns
    x: range  # the grouped variables, in the partition's column order
    coupling: range  # rows
    linking: range  # rows, one per count column in the order of y
    selection: range  # rows, one per block
    groups: range  # rows, one per group in the partition's order


def _spans(start, widths):
    """Consecutive ranges of the given widths from ``start``."""
    out = []
    for w in widths:
        out.append(range(start, start + w))
        start += w
    return tuple(out)


def coupled_model(b, slack_bounds, selection=None, grouped=None):
    """The mixed model coupling box-typed selections and box-grouped variables.

    ``selection`` is ``(config_part, costs)``: a ConfigBoxPartition over
    per-block matrices of distinct configuration columns, and each block's
    column costs (one per column, so a block's width is their number); a 0/1
    variable z selects a block's column, and an integer count y per (type,
    column) stands for the selections of that column across the type's
    blocks, whose keys, and so widths, are equal.  ``grouped`` is ``(part,
    lower, upper, costs)``: a BoxPartition plus each partition column's
    bounds and cost; the columns relax to continuous variables x, and an
    integer variable g per group stands for its members' sum.  Canonical
    vectors go on y and g, residuals on z and x, and each coupling row
    ``= b_r`` gains a slack column bounded by +-slack_bounds[r].  An absent
    part adds no rows and no columns.  Each row is built once as integers
    over a scale, which the ``linalg.Matrix`` it goes into reduces.

    Columns are ``[z | y | x | g | slack]``, each block's z and each type's y
    contiguous, types and groups in their partition's order.  Rows are
    ``[coupling | linking | selection | group]``: a type's selections of
    column phi sum to its y of phi, each block selects one of its columns,
    and a group's members sum to its g.  Any integer point of the original
    program embeds with zero slack and equal objective, so the model optimum
    never exceeds the original's.  The returned ``CoupledModel`` records
    where each part sits.
    """
    cpart, block_costs = selection if selection is not None else (None, ())
    part, x_lower, x_upper, x_costs = grouped if grouped is not None else (None, (), (), ())
    types = tuple(cpart.type_groups.items()) if cpart is not None else ()
    groups = tuple(part.groups.items()) if part is not None else ()
    s = len(b)
    blocks = len(block_costs)
    z = _spans(0, [len(costs) for costs in block_costs])
    nz = z[-1].stop if z else 0
    y = _spans(nz, [len(key) for key, _ in types])
    x0 = y[-1].stop if y else nz
    x = range(x0, x0 + len(x_costs))
    g0 = x.stop
    s0 = g0 + len(groups)
    cols = s0 + s
    linking = range(s, s + x0 - nz)
    rows_sel = range(linking.stop, linking.stop + blocks)
    rows_grp = range(rows_sel.stop, rows_sel.stop + len(groups))
    rows = rows_grp.stop

    # coupling row r over U, the lcm of the partitions' units: every corner
    # and residual lifted to U, and the slack -U
    U = math.lcm(*(p.unit for p in (cpart, part) if p is not None))
    lifted = []  # (column, its ints over a unit, U // that unit), in column order
    if cpart is not None:
        f = U // cpart.unit
        for zi, residuals in zip(z, cpart.residual_matrices):
            lifted.extend((j, res, f) for j, res in zip(zi, residuals))
        for (key, _), yk in zip(types, y):
            lifted.extend((j, canon, f) for j, canon in zip(yk, cpart.canonical_matrices[key]))
    if part is not None:
        f = U // part.unit
        lifted.extend((j, res, f) for j, res in zip(x, part.residuals))
        lifted.extend((g0 + k, part.canonicals[key], f) for k, (key, _) in enumerate(groups))
    nonzeros = [[*((j, vec[r] * m) for j, vec, m in lifted if vec[r]), (s0 + r, -U)]
                for r in range(s)]
    # the linking, selection and group rows: +-1 entries over scale 1
    for (_, members), yk in zip(types, y):
        for phi, j in enumerate(yk):
            nonzeros.append([*((z[i][phi], 1) for i in members), (j, -1)])
    nonzeros.extend([(j, 1) for j in zi] for zi in z)
    for k, (_, members) in enumerate(groups):
        nonzeros.append([*((x0 + j, 1) for j in members), (g0 + k, -1)])

    lower = [0] * nz
    upper = [1] * nz
    for (_, members), yk in zip(types, y):
        lower.extend([0] * len(yk))
        upper.extend([len(members)] * len(yk))
    lower.extend(x_lower)
    upper.extend(x_upper)
    for _, members in groups:
        lower.append(sum(x_lower[j] for j in members))
        upper.append(sum(x_upper[j] for j in members))
    lower.extend(-v for v in slack_bounds)
    upper.extend(slack_bounds)
    objective = [c for costs in block_costs for c in costs]
    objective.extend([0] * (x0 - nz))
    objective.extend(x_costs)
    objective.extend([0] * (cols - g0))
    rhs = tuple(b) + (0,) * len(linking) + (1,) * blocks + (0,) * len(groups)

    A = Matrix(rows, cols, nonzeros, [U] * s + [1] * (rows - s))
    lp = LinearProgram(A, rhs, tuple(lower), tuple(upper), tuple(objective))
    mixed = MixedModel(lp, frozenset(range(nz, x0)) | frozenset(range(g0, s0)))
    return CoupledModel(mixed, cpart, part, z, y, x, range(s), linking, rows_sel, rows_grp)
