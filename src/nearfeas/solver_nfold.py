"""Pipeline for nonnegative block IPs with local equality constraints.

Step 0 scales each block's local rows, in integers, so surviving right-hand
entries are 1 (zero rows fix variables to 0 or vanish).  Scaled local
columns are big (some coordinate at least psi) or small; small columns split
x = lambda * major + minor so the major part has big scaled columns and the
minor part has negligible local impact.  If every column is big the instance
delegates to the configuration pipeline over the exact local solution sets;
otherwise a combined mixed model (``boxes.coupled_model`` with both parts)
couples box-typed major configurations with box-grouped minor variables, and
the two parts of its optimum are rounded independently, each an optimal
vertex of the LP that pins the rest: the selections by the configuration
pipeline's selection stage (``solver_config.select_columns``: TU re-solve)
and the minors by the general pipeline's grouped rounding stage
(``solver_general.round_within_groups``: greedy in-group rounding).
Recombination (``_recombine``) may overshoot an upper bound by less than
lambda; clamping repairs it with a local effect below eps/2 per block.

Every acceptance decision is an exact post-hoc check of the multiplicative
guarantee on the original unscaled data.  On failure ``results.refine``,
which owns the halving and the refinement limit, halves both box widths
together; psi is halved too at the start of the attempt after a clamped
failure, which drives the model toward the clamp-free all-big regime.
"""

import math
from dataclasses import dataclass, replace

from .boxes import coupled_model, partition_columns, partition_config_columns
from .branch_bound import SolveStats, solve_mip
from .errors import EnumerationCapExceeded, InvalidInstanceError, PipelineInvariantError
from .instances import MULTIPLICATIVE, ConfigBlock, NFoldConfigInstance, validate_nonneg
from .instances import violation_report
from .linalg import Matrix
from .rationals import ONE, ZERO
from .results import ApproxResult, SolveStatus, refine
from .solver_config import select_columns, solve_config_core, value_columns
from .solver_general import round_within_groups


@dataclass(frozen=True)
class ScaledBlock:
    index: int
    block: object  # original NonnegBlock
    A: Matrix  # surviving rows, scaled so the right-hand entry is 1
    fixed_zero: frozenset  # columns forced to 0 by a zero right-hand row


BIG, SMALL, FIXED = "big", "small", "fixed"
CONFIG_CAP = 200_000  # major configurations per block before EnumerationCapExceeded


@dataclass(frozen=True)
class ColumnSplit:
    kinds: tuple
    lambdas: tuple
    major_ub: tuple
    minor_ub: tuple


def normalize_blocks(inst):
    """Step-0 scaling; returns None when some right-hand entry is negative
    (then no nonnegative x can satisfy even the relaxed local constraints).
    A row over scale s divided by b_h = p / q is its ints times q over s * p."""
    out = []
    for idx, blk in enumerate(inst.blocks):
        if any(bh < 0 for bh in blk.bi):
            return None
        A = blk.A
        # a zero right-hand side forces the row's nonzero columns to 0
        fixed = frozenset(j for nz, bh in zip(A.nonzeros, blk.bi) if bh == 0 for j, _ in nz)
        kept = [(nz, s, bh) for nz, s, bh in zip(A.nonzeros, A.scales, blk.bi) if bh]
        nonzeros = [[(j, a * bh.denominator) for j, a in nz] for nz, _, bh in kept]
        scales = [s * bh.numerator for _, s, bh in kept]
        out.append(ScaledBlock(idx, blk, Matrix(len(kept), A.cols, nonzeros, scales), fixed))
    return out


def classify_and_split(sblock, psi):
    """Big/small classification and lambda splitting of one scaled block; a
    column's largest entry top / den meets psi = P / Q in integers."""
    u = sblock.block.u
    tops = [(0, 1)] * sblock.A.cols
    for nz, s in zip(sblock.A.nonzeros, sblock.A.scales):
        for j, a in nz:
            top, den = tops[j]
            if a * den > top * s:
                tops[j] = (a, s)
    P, Q = psi.numerator, psi.denominator
    columns = []  # per column: (kind, lambda, major bound, minor bound)
    for j, (top, den) in enumerate(tops):
        if j in sblock.fixed_zero:
            columns.append((FIXED, 1, 0, 0))
        elif top == 0 or top * Q >= P * den:
            # a column that is zero in every surviving row (or in a block
            # with none) has no local weight: it is big, so its values are
            # enumerated exactly
            columns.append((BIG, 1, u[j], 0))
        else:
            lam = -(-P * den // (Q * top))  # ceil(psi / (top / den))
            if (lam - 1) * top * Q >= P * den or lam * top * Q > 2 * P * den:
                raise PipelineInvariantError("lambda minimality violated")
            columns.append((SMALL, lam, u[j] // lam, min(lam - 1, u[j])))
    return ColumnSplit(*zip(*columns))


def enumerate_major_configs(sblock, split, window, cap):
    """All integer major vectors with the scaled-and-lambda'd local sums inside
    the window on every surviving row, in lexicographic order.

    The sums are integers over each row's scale s in ``sblock.A``, so the
    window is the integer bounds ceil(lo * s) and floor(hi * s) per row.  The
    scaled columns are nonnegative, so a partial sum above the window's top
    stays above it for larger values; the cap fails loudly.
    """
    A = sblock.A
    t = A.cols
    lo, hi = window
    lows = [-(-lo.numerator * s // lo.denominator) for s in A.scales]
    highs = [hi.numerator * s // hi.denominator for s in A.scales]
    cols = [[0] * A.rows for _ in range(t)]
    for h, nz in enumerate(A.nonzeros):
        for j, a in nz:
            cols[j][h] = split.lambdas[j] * a
    out = []
    x = [0] * t

    def rec(rec, j, acc):  # passed in: a closure over itself would be a cycle
        if j == t:
            if all(a >= low for a, low in zip(acc, lows)):
                out.append(tuple(x))
                if len(out) > cap:
                    raise EnumerationCapExceeded(
                        f"block {sblock.index}: more than {cap} major configurations"
                    )
            return
        col = cols[j]
        for v in range(split.major_ub[j] + 1):
            x[j] = v
            if v:
                acc = [a + c for a, c in zip(acc, col)]
                if any(a > high for a, high in zip(acc, highs)):
                    break
            rec(rec, j + 1, acc)
        x[j] = 0

    rec(rec, 0, [0] * A.rows)
    return tuple(out)


def major_values(sblocks, splits, config_lists):
    """Per block, the value matrix of its major configurations (column phi
    holds sum_j lambda_j (x'_phi)_j D_j) and their costs: two tuples."""
    values = []
    for sb, split, cfgs in zip(sblocks, splits, config_lists):
        scaled = [tuple(lam * v for lam, v in zip(split.lambdas, cfg)) for cfg in cfgs]
        values.append(value_columns(sb.block.D, sb.block.w, scaled))
    return tuple(zip(*values))


def build_mip6(inst, sblocks, splits, majors, delta1, delta2, slack_bounds, epsilon):
    """Combined mixed model: box-typed major selections plus box-grouped minors.

    ``majors`` is ``major_values`` of the blocks.  Returns the model and the
    (block, column) of each minor variable, in the order of its grouped part.
    Asserts the minor-part smallness bound (below eps/2 per scaled local row)
    exactly at build time.
    """
    sd = len(inst.b0)
    value_mats, config_costs = majors
    config_part = partition_config_columns(value_mats, delta1)

    # minor variables: one per small column with a positive bound
    minor_keys = []
    minor_ub = []
    for sb, split in zip(sblocks, splits):
        for j in range(sb.A.cols):
            if split.kinds[j] == SMALL and split.minor_ub[j] > 0:
                minor_keys.append((sb.index, j))
                minor_ub.append(split.minor_ub[j])
        # exact smallness check: the whole minor range (only small columns
        # have one) stays under eps/2, in integers over each row's scale s
        for nz, s in zip(sb.A.nonzeros, sb.A.scales):
            reach = sum(a * split.minor_ub[j] for j, a in nz)
            if 2 * reach * epsilon.denominator > epsilon.numerator * s:
                raise PipelineInvariantError("minor part exceeds eps/2 on a local row")
    minor_keys = tuple(minor_keys)
    grouped = None
    if minor_keys:
        # column k is column j of block i's D for (i, j) = minor_keys[k]; row
        # r is over the lcm of the blocks' scales of row r
        Ds = [inst.blocks[i].D for i, _ in minor_keys]
        L = [math.lcm(*(D.scales[r] for D in Ds)) for r in range(sd)]
        nonzeros = [[(k, a * (L[r] // D.scales[r]))
                     for k, (D, (_, j)) in enumerate(zip(Ds, minor_keys))
                     if (a := dict(D.nonzeros[r]).get(j))] for r in range(sd)]
        minor_part = partition_columns(Matrix(sd, len(minor_keys), nonzeros, L), delta2)
        costs = tuple(inst.blocks[i].w[j] for i, j in minor_keys)
        grouped = (minor_part, (ZERO,) * len(minor_keys), tuple(minor_ub), costs)

    model = coupled_model(
        inst.b0, slack_bounds, selection=(config_part, config_costs), grouped=grouped
    )
    return model, minor_keys


def _major_configs(sblocks, splits, window):
    """Major configurations of every block, or None once a block has none."""
    out = []
    for sb, split in zip(sblocks, splits):
        cfgs = enumerate_major_configs(sb, split, window, CONFIG_CAP)
        if not cfgs:
            return None
        out.append(cfgs)
    return out


def solve_nfold(inst, params):
    problems, delta_cfg = validate_nonneg(inst)
    if problems:
        raise InvalidInstanceError(problems)
    eps = params.epsilon
    stats = SolveStats()

    sblocks = normalize_blocks(inst)
    if sblocks is None:
        return ApproxResult(SolveStatus.INFEASIBLE, stats=stats)

    t = inst.blocks[0].A.cols
    psi = eps / (4 * t)
    splits = [classify_and_split(sb, psi) for sb in sblocks]

    if all(k != SMALL for sp in splits for k in sp.kinds):
        return _solve_case1(inst, params, sblocks, splits, delta_cfg, stats)
    return _solve_case2(inst, params, sblocks, splits, psi, stats)


def _solve_case1(inst, params, sblocks, splits, delta_cfg, stats):
    """All columns big: delegate to the configuration pipeline over the exact
    local solution sets, then restate the additive outcome multiplicatively."""
    eps = params.epsilon
    # the exact local solution sets: window [1, 1] on every surviving row
    config_lists = _major_configs(sblocks, splits, (ONE, ONE))
    if config_lists is None:
        return ApproxResult(
            SolveStatus.INFEASIBLE, stats=stats,
            notes=("case1", "a block has no exact local solutions"),
        )
    # the core's records are built as they are, not parsed again: D, w and
    # b0 come parsed from the instance, the configurations are int tuples
    cfg_inst = NFoldConfigInstance(
        tuple(ConfigBlock(blk.D, cfgs, blk.w) for blk, cfgs in zip(inst.blocks, config_lists)),
        inst.b0,
    )
    bounds = tuple(min(eps * delta_cfg, eps * b) if b > 0 else ZERO for b in inst.b0)
    delegate = solve_config_core(cfg_inst, params, bounds, stats)
    if delegate.status != SolveStatus.OK:
        return replace(delegate, notes=("case1",) + delegate.notes)
    report = violation_report(inst, delegate.x, MULTIPLICATIVE, eps)
    if not report.within_bound:
        raise PipelineInvariantError("delegated solution escaped the multiplicative bound")
    return replace(delegate, objective=report.objective, report=report, notes=("case1",))


def _recombine(sblocks, splits, config_lists, chosen, minors):
    """x = lambda * major + minor per block, for each block's chosen major
    configuration and the rounded minors by (block, column), clamped at u;
    returns x and the clamps, one (block, column, overshoot) each."""
    clamped = []
    x_blocks = []
    for sb, split in zip(sblocks, splits):
        u = sb.block.u
        xi = []
        for j, major in enumerate(config_lists[sb.index][chosen[sb.index]]):
            v = split.lambdas[j] * major + minors.get((sb.index, j), 0)
            if v > u[j]:
                clamped.append((sb.index, j, v - u[j]))
                v = u[j]
            xi.append(v)
        x_blocks.append(tuple(xi))
    return tuple(x_blocks), clamped


def _solve_case2(inst, params, sblocks, splits, psi, stats):
    eps = params.epsilon
    sd = len(inst.b0)
    b_pos = [b for b in inst.b0 if b > 0]
    b_min = min(b_pos) if b_pos else ONE
    slack_bounds = tuple((eps / 2) * b if b > 0 else ZERO for b in inst.b0)
    window = (1 - eps / 2, 1 + eps / 2)

    config_lists = _major_configs(sblocks, splits, window)
    if config_lists is None:
        return ApproxResult(
            SolveStatus.INFEASIBLE, stats=stats,
            notes=("case2", "a block has no major configurations in the window"),
        )
    tau = max(len(c) for c in config_lists)
    majors = major_values(sblocks, splits, config_lists)

    if params.delta_override is not None:
        delta1 = delta2 = params.delta_override
    else:
        # the normalizer relates the absolute selection-rounding error to the
        # smallest positive coupling target; the exact post-hoc check governs
        scale1 = max(m.inf_norm() for m in majors[0])
        nu1 = max(ONE, scale1 / b_min)
        delta1 = eps / (4 * sd * (2 * tau + 1) * nu1)
        delta2 = eps / (8 * sd)
    ratio = delta2 / delta1
    clamped = ()

    def attempt(delta1):
        nonlocal psi, splits, config_lists, majors, clamped
        if clamped:
            # clamping is width-independent; shrinking psi turns small columns
            # big and removes the overshoot source entirely
            psi = psi / 2
            splits = [classify_and_split(sb, psi) for sb in sblocks]
            config_lists = _major_configs(sblocks, splits, window)
            if config_lists is None:
                return ApproxResult(
                    SolveStatus.INFEASIBLE, delta_used=delta1, stats=stats,
                    notes=("case2", "no major configurations after psi refinement"),
                )
            majors = major_values(sblocks, splits, config_lists)
        model, minor_keys = build_mip6(
            inst, sblocks, splits, majors, delta1, delta1 * ratio, slack_bounds, eps
        )
        mixed = solve_mip(model.mixed, node_limit=params.node_limit, stats=stats)
        if mixed.numerators is None:
            return ApproxResult(
                SolveStatus.INFEASIBLE, delta_used=delta1, stats=stats, notes=("case2",)
            )

        chosen, sel_cost = select_columns(model, mixed, stats)
        minors, minor_cost = {}, ZERO
        if minor_keys:
            values, minor_cost = round_within_groups(model, mixed)
            minors = dict(zip(minor_keys, values))
        if sel_cost + minor_cost > mixed.objective_value:
            raise PipelineInvariantError("objective chain violated")

        x, clamped = _recombine(sblocks, splits, config_lists, chosen, minors)
        report = violation_report(inst, x, MULTIPLICATIVE, eps)
        if report.within_bound:
            return ApproxResult(
                SolveStatus.OK, x, report.objective, report, delta1, stats=stats, notes=("case2",)
            )
        return None

    return refine(attempt, delta1, params.refinement_limit)
