"""Uniform box discretization of column vectors.

Columns living in [-scale, scale]^m are assigned to axis-aligned cells of
side delta*scale; each cell's lower corner is its canonical vector, and every
column decomposes exactly as canonical + residual with the residual bounded
entrywise by delta*scale.  Grouping columns (or whole per-block column
matrices) by cell underlies all three solver pipelines, and ``coupled_model``
builds the one mixed model all three solve over such partitions.
"""

from dataclasses import dataclass

from .branch_bound import MixedModel
from .errors import PipelineInvariantError
from .linalg import Matrix
from .rationals import ONE, Rat, ZERO, as_rat, rat_ceil
from .simplex import LinearProgram


def snap_delta(delta):
    """Largest reciprocal of an integer that is <= delta, so the grid tiles exactly."""
    delta = as_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return Rat(1, rat_ceil(1 / delta))


@dataclass(frozen=True)
class BoxIndex:
    lambdas: tuple

    def __lt__(self, other):
        return self.lambdas < other.lambdas


def box_index(vec, delta, scale):
    """Cell index of vec: lambda_i = ceil(v_i / (delta*scale)), clamped.

    Boundary values land in the lower cell; -scale (which has no lower cell)
    clamps up into range.
    """
    delta = snap_delta(delta)
    cells = rat_ceil(1 / delta)  # 1/delta, integral after snapping
    side = delta * scale
    if side <= 0:
        raise ValueError("delta*scale must be positive")
    lams = []
    for v in vec:
        if abs(v) > scale:
            raise ValueError("coordinate exceeds scale")
        lam = rat_ceil(v / side)
        if lam < 1 - cells:
            lam = 1 - cells
        lams.append(lam)
    return BoxIndex(tuple(lams))


def canonical_vector(idx, delta, scale):
    """Lower corner of the cell: coordinate i is (lambda_i - 1) * delta * scale."""
    side = snap_delta(delta) * scale
    return tuple((lam - 1) * side for lam in idx.lambdas)


@dataclass(frozen=True)
class BoxPartition:
    delta: object  # snapped
    scale: object
    groups: dict  # BoxIndex -> list of column indices
    canonicals: dict  # BoxIndex -> canonical vector
    residuals: tuple  # per column: column - canonical(its cell)


def partition_columns(mat, delta):
    """Group the columns of mat by cell; only occupied cells materialize."""
    if mat.cols == 0:
        raise ValueError("matrix has no columns")
    scale = mat.inf_norm()
    if scale == 0:
        scale = ONE
    delta = snap_delta(delta)
    side = delta * scale
    groups = {}
    canonicals = {}
    residuals = []
    for j in range(mat.cols):
        col = mat.column(j)
        idx = box_index(col, delta, scale)
        if idx not in groups:
            groups[idx] = []
            canonicals[idx] = canonical_vector(idx, delta, scale)
        groups[idx].append(j)
        canon = canonicals[idx]
        res = tuple(v - cv for v, cv in zip(col, canon))
        for rv in res:
            if abs(rv) > side:
                raise PipelineInvariantError("residual exceeds cell side")
        residuals.append(res)
    return BoxPartition(delta, scale, groups, canonicals, tuple(residuals))


@dataclass(frozen=True)
class ConfigBoxPartition:
    delta: object
    scale: object
    type_groups: dict  # tuple[BoxIndex, ...] -> list of block indices
    canonical_matrices: dict  # type -> tuple of canonical vectors (one per column)
    residual_matrices: tuple  # per block: tuple of residual vectors


def partition_config_columns(mats, delta):
    """Group whole per-block column matrices by the tuple of their cells.

    Blocks whose matrices land columnwise in the same cells share one type;
    only occurring types materialize.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("no matrices")
    shape = (mats[0].rows, mats[0].cols)
    for m in mats:
        if (m.rows, m.cols) != shape:
            raise ValueError("dimension mismatch: blocks differ in shape")
    scale = max((m.inf_norm() for m in mats), default=ZERO)
    if scale == 0:
        scale = ONE
    delta = snap_delta(delta)
    side = delta * scale
    type_groups = {}
    canonical_matrices = {}
    residual_matrices = []
    for i, m in enumerate(mats):
        key = tuple(box_index(m.column(j), delta, scale) for j in range(m.cols))
        if key not in type_groups:
            type_groups[key] = []
            canonical_matrices[key] = tuple(
                canonical_vector(idx, delta, scale) for idx in key
            )
        type_groups[key].append(i)
        canon = canonical_matrices[key]
        resid = []
        for j in range(m.cols):
            col = m.column(j)
            res = tuple(v - cv for v, cv in zip(col, canon[j]))
            for rv in res:
                if abs(rv) > side:
                    raise PipelineInvariantError("residual exceeds cell side")
            resid.append(res)
        residual_matrices.append(tuple(resid))
    return ConfigBoxPartition(
        delta, scale, type_groups, canonical_matrices, tuple(residual_matrices)
    )


def coupled_model(b, slack_bounds, selection=None, grouped=None):
    """The mixed model coupling box-typed selections and box-grouped variables.

    ``selection`` is ``(config_part, tau, costs)``: a ConfigBoxPartition over
    per-block matrices of tau columns, and each block's tau column costs; a
    0/1 variable z selects a block's column, and an integer count y per
    (type, column) stands for the selections of that column across the
    type's blocks.  ``grouped`` is ``(part, lower, upper, costs)``: a
    BoxPartition plus each partition column's bounds and cost; the columns
    relax to continuous variables x, and an integer variable g per group
    stands for its members' sum.  Canonical vectors go on y and g, residuals
    on z and x, and each coupling row ``= b_r`` gains a slack column bounded
    by +-slack_bounds[r].  An absent part adds no rows and no columns.

    Columns are ``[z | y | x | g | slack]``: z of (block i, column phi) at
    ``i * tau + phi``, y of (type k, column phi) at ``k * tau + phi`` past the
    z, and types and groups in their partition's order.  Rows are
    ``[coupling | linking | selection | group]``: a type's selections of
    column phi sum to its y, each block selects one column, and a group's
    members sum to its g.  Any integer point of the original program embeds
    with zero slack and equal objective, so the model optimum never exceeds
    the original's.
    """
    cpart, tau, block_costs = selection if selection is not None else (None, 0, ())
    part, x_lower, x_upper, x_costs = grouped if grouped is not None else (None, (), (), ())
    types = tuple(cpart.type_groups.items()) if cpart is not None else ()
    groups = tuple(part.groups.items()) if part is not None else ()
    s = len(b)
    blocks = len(block_costs)
    nz = blocks * tau
    x0 = nz + len(types) * tau
    g0 = x0 + len(x_costs)
    s0 = g0 + len(groups)
    cols = s0 + s
    rows = s + len(types) * tau + blocks + len(groups)
    entries = [ZERO] * (rows * cols)

    for r in range(s):
        base = r * cols
        for i in range(blocks):
            for phi, res in enumerate(cpart.residual_matrices[i]):
                entries[base + i * tau + phi] = res[r]
        for k, (key, _) in enumerate(types):
            for phi, canon in enumerate(cpart.canonical_matrices[key]):
                entries[base + nz + k * tau + phi] = canon[r]
        for j in range(len(x_costs)):
            entries[base + x0 + j] = part.residuals[j][r]
        for k, (key, _) in enumerate(groups):
            entries[base + g0 + k] = part.canonicals[key][r]
        entries[base + s0 + r] = -ONE
    row = s
    for k, (_, members) in enumerate(types):
        for phi in range(tau):
            base = row * cols
            for i in members:
                entries[base + i * tau + phi] = ONE
            entries[base + nz + k * tau + phi] = -ONE
            row += 1
    for i in range(blocks):
        base = row * cols + i * tau
        entries[base : base + tau] = [ONE] * tau
        row += 1
    for k, (_, members) in enumerate(groups):
        base = row * cols
        for j in members:
            entries[base + x0 + j] = ONE
        entries[base + g0 + k] = -ONE
        row += 1

    lower = [ZERO] * nz
    upper = [ONE] * nz
    for _, members in types:
        lower.extend([ZERO] * tau)
        upper.extend([Rat(len(members))] * tau)
    lower.extend(x_lower)
    upper.extend(x_upper)
    for _, members in groups:
        lower.append(sum(x_lower[j] for j in members))
        upper.append(sum(x_upper[j] for j in members))
    lower.extend(-v for v in slack_bounds)
    upper.extend(slack_bounds)
    objective = [c for costs in block_costs for c in costs]
    objective.extend([ZERO] * (x0 - nz))
    objective.extend(x_costs)
    objective.extend([ZERO] * (cols - g0))
    rhs = tuple(b) + (ZERO,) * (x0 - nz) + (ONE,) * blocks + (ZERO,) * len(groups)

    lp = LinearProgram(
        Matrix(rows, cols, entries), rhs, tuple(lower), tuple(upper), tuple(objective)
    )
    return MixedModel(lp, frozenset(range(nz, x0)) | frozenset(range(g0, s0)))


def selection_columns(part, n, tau):
    """Where ``coupled_model`` puts the selection z of (block i, column phi)
    for a ConfigBoxPartition ``part`` over n blocks: column i * tau + phi;
    and each block's type."""
    z_col = {(i, phi): i * tau + phi for i in range(n) for phi in range(tau)}
    block_type = [None] * n
    for key, members in part.type_groups.items():
        for i in members:
            block_type[i] = key
    return z_col, tuple(block_type)
