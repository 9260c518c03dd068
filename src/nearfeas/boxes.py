"""Uniform box discretization of column vectors.

Columns living in [-scale, scale]^m are assigned to axis-aligned cells of
side delta*scale; each cell's lower corner is its canonical vector, and every
column decomposes exactly as canonical + residual with the residual bounded
entrywise by delta*scale.  Grouping columns (or whole per-block column
matrices) by cell underlies all three solver pipelines.
"""

from dataclasses import dataclass

from .errors import PipelineInvariantError
from .rationals import ONE, Rat, ZERO, as_rat, rat_ceil


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
