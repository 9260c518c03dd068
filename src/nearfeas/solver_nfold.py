"""Pipeline for nonnegative block IPs with local equality constraints.

Step 0 scales each block's local rows so surviving right-hand entries are 1
(zero rows either fix variables to 0 or vanish).  Columns of the scaled local
matrices are big (some coordinate at least psi) or small; small columns split
x = lambda * major + minor so the major part has big scaled columns and the
minor part has negligible local impact.  If every column is big the instance
delegates to the configuration pipeline over the exact local solution sets;
otherwise a combined mixed model couples box-typed major configurations with
box-grouped minor variables, and the two parts are re-solved and rounded
independently: the selections by the configuration pipeline's selection
stage (``solver_config.select_columns``: fixed-count vertex, then TU
re-solve), so a trace collects their fixed-count vertices as it does there,
and the minors by greedy in-group rounding.  Recombination may overshoot an
upper bound by less than lambda; clamping repairs it with a local effect
below eps/2 per block.

Every acceptance decision is an exact post-hoc check of the multiplicative
guarantee on the original unscaled data; on failure the box widths are
halved, and psi too whenever clamping contributed, which drives the model
toward the clamp-free all-big regime.
"""

from dataclasses import dataclass

from .boxes import partition_columns, partition_config_columns
from .branch_bound import MIPStatus, MixedModel, SolveStats, solve_mip
from .errors import (
    EnumerationCapExceeded,
    InvalidInstanceError,
    PipelineInvariantError,
    RefinementLimitExceeded,
    ZeroColumnUnsupported,
)
from .instances import (
    MULTIPLICATIVE,
    NFoldConfigInstance,
    validate_nonneg,
    violation_report,
)
from .linalg import Matrix
from .rationals import ONE, Rat, ZERO, rat_ceil
from .results import ApproxResult, SolveStatus
from .rounding import GroupRoundingPlan, greedy_group_round
from .simplex import LinearProgram, LPStatus, nonintegral_support, solve_lp_vertex
from .solver_config import (
    ConfigModel,
    pad_configs,
    select_columns,
    selection_columns,
    solve_config_core,
    value_columns,
)


@dataclass(frozen=True)
class ScaledBlock:
    index: int
    block: object  # original NonnegBlock
    A: Matrix  # surviving rows, scaled so the right-hand entry is 1
    row_map: tuple  # original row index per surviving row
    fixed_zero: frozenset  # columns forced to 0 by a zero right-hand row


BIG, SMALL, FIXED = "big", "small", "fixed"


@dataclass(frozen=True)
class ColumnSplit:
    kinds: tuple
    lambdas: tuple
    major_ub: tuple
    minor_ub: tuple


def normalize_blocks(inst):
    """Step-0 scaling; returns None when some right-hand entry is negative
    (then no nonnegative x can satisfy even the relaxed local constraints)."""
    out = []
    for idx, blk in enumerate(inst.blocks):
        t = blk.A.cols
        fixed = set()
        surviving = []
        for h in range(blk.A.rows):
            bh = blk.bi[h]
            if bh == 0:
                row = blk.A.row(h)
                nz = [j for j in range(t) if row[j]]
                fixed.update(nz)  # zero right-hand side forces these to 0
            elif bh < 0:
                return None
            else:
                surviving.append(h)
        entries = []
        for h in surviving:
            bh = blk.bi[h]
            entries.extend(v / bh for v in blk.A.row(h))
        out.append(
            ScaledBlock(
                idx,
                blk,
                Matrix(len(surviving), t, entries),
                tuple(surviving),
                frozenset(fixed),
            )
        )
    return out


def classify_and_split(sblock, psi):
    """Big/small classification and lambda splitting of one scaled block."""
    t = sblock.A.cols
    u = sblock.block.u
    kinds = []
    lambdas = []
    major_ub = []
    minor_ub = []
    for j in range(t):
        if j in sblock.fixed_zero:
            kinds.append(FIXED)
            lambdas.append(1)
            major_ub.append(0)
            minor_ub.append(0)
            continue
        col = sblock.A.column(j)
        maxcoord = max(col, default=None)
        if maxcoord is None:
            # no surviving local rows: unconstrained locally, treat as big
            kinds.append(BIG)
            lambdas.append(1)
            major_ub.append(u[j])
            minor_ub.append(0)
            continue
        if maxcoord <= 0:
            raise ZeroColumnUnsupported(
                f"block {sblock.index} column {j} is zero in every surviving row"
            )
        if maxcoord >= psi:
            kinds.append(BIG)
            lambdas.append(1)
            major_ub.append(u[j])
            minor_ub.append(0)
        else:
            lam = rat_ceil(psi / maxcoord)
            if (lam - 1) * maxcoord >= psi or lam * maxcoord > 2 * psi:
                raise PipelineInvariantError("lambda minimality violated")
            kinds.append(SMALL)
            lambdas.append(lam)
            major_ub.append(u[j] // lam)
            minor_ub.append(min(lam - 1, u[j]))
    return ColumnSplit(tuple(kinds), tuple(lambdas), tuple(major_ub), tuple(minor_ub))


def enumerate_major_configs(sblock, split, window, cap):
    """All integer major vectors with the scaled-and-lambda'd local sums inside
    the window on every surviving row, in lexicographic order.

    The scaled columns are nonnegative, so a partial sum above the window's
    top stays above it for larger values; the cap fails loudly.
    """
    t = sblock.A.cols
    rows = sblock.A.rows
    lo, hi = window
    cols = []
    for j in range(t):
        lam = split.lambdas[j]
        cols.append(tuple(lam * v for v in sblock.A.column(j)))
    out = []
    x = [0] * t

    def rec(j, acc):
        if j == t:
            if all(a >= lo for a in acc):
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
                if any(a > hi for a in acc):
                    break
            rec(j + 1, acc)
        x[j] = 0

    rec(0, [ZERO] * rows)
    return tuple(out)


@dataclass(frozen=True)
class Mip6Model(ConfigModel):
    """The selection model over the major value matrices, plus the minors."""

    configs: tuple  # per block: tuple of tau major vectors
    minor_keys: tuple  # (block, column) per minor variable
    minor_col: dict
    minor_part: object  # BoxPartition over the minor D columns, or None
    minor_ub: dict  # (block, column) -> bound


def build_mip6(inst, sblocks, splits, config_lists, delta1, delta2, slack_bounds, epsilon):
    """Combined mixed model: box-typed major selections plus box-grouped minors.

    Asserts the minor-part smallness bound (below eps/2 per scaled local row)
    exactly at build time.
    """
    n = len(sblocks)
    sd = len(inst.b0)
    tau, configs = pad_configs(config_lists)

    # major value matrices: column phi holds sum_j lambda_j (x'_phi)_j D_j
    value_mats = []
    config_costs = []
    for sb, split, cfgs in zip(sblocks, splits, configs):
        scaled = [tuple(lam * v for lam, v in zip(split.lambdas, cfg)) for cfg in cfgs]
        mat, costs = value_columns(sb.block.D, sb.block.w, scaled)
        value_mats.append(mat)
        config_costs.append(costs)
    config_part = partition_config_columns(value_mats, delta1)

    # minor variables: one per small column with a positive bound
    minor_keys = []
    minor_ub = {}
    for sb, split in zip(sblocks, splits):
        for j in range(sb.A.cols):
            if split.kinds[j] == SMALL and split.minor_ub[j] > 0:
                minor_keys.append((sb.index, j))
                minor_ub[(sb.index, j)] = split.minor_ub[j]
        # exact smallness check: the whole minor range stays under eps/2
        for h in range(sb.A.rows):
            row = sb.A.row(h)
            reach = sum(
                (row[j] * split.minor_ub[j] for j in range(sb.A.cols) if split.kinds[j] == SMALL),
                ZERO,
            )
            if reach > epsilon / 2:
                raise PipelineInvariantError("minor part exceeds eps/2 on a local row")
    minor_keys = tuple(minor_keys)
    minor_part = None
    if minor_keys:
        entries = []
        for r in range(sd):
            for (i, j) in minor_keys:
                entries.append(inst.blocks[i].D.at(r, j))
        minor_part = partition_columns(Matrix(sd, len(minor_keys), entries), delta2)

    type_keys = tuple(config_part.type_groups.keys())
    nz = n * tau
    ny = len(type_keys) * tau
    nminor = len(minor_keys)
    nyd = len(minor_part.groups) if minor_part is not None else 0
    nslack = sd
    cols = nz + ny + nminor + nyd + nslack
    z_col, y_col, block_type = selection_columns(config_part, n, tau)
    minor_col = {key: nz + ny + p for p, key in enumerate(minor_keys)}
    yd_col = {}
    if minor_part is not None:
        for d, key in enumerate(minor_part.groups.keys()):
            yd_col[key] = nz + ny + nminor + d

    rows = sd + len(type_keys) * tau + n + nyd
    entries = [ZERO] * (rows * cols)
    rhs = []
    for r in range(sd):
        base = r * cols
        for k, key in enumerate(type_keys):
            canon = config_part.canonical_matrices[key]
            for phi in range(tau):
                entries[base + y_col[(key, phi)]] = canon[phi][r]
        for i in range(n):
            resid = config_part.residual_matrices[i]
            for phi in range(tau):
                entries[base + z_col[(i, phi)]] = resid[phi][r]
        if minor_part is not None:
            for d, (key, members) in enumerate(minor_part.groups.items()):
                entries[base + yd_col[key]] = minor_part.canonicals[key][r]
                for p in members:
                    entries[base + minor_col[minor_keys[p]]] = minor_part.residuals[p][r]
        entries[base + nz + ny + nminor + nyd + r] = -ONE
        rhs.append(inst.b0[r])
    row = sd
    for key in type_keys:
        for phi in range(tau):
            base = row * cols
            for i in config_part.type_groups[key]:
                entries[base + z_col[(i, phi)]] = ONE
            entries[base + y_col[(key, phi)]] = -ONE
            rhs.append(ZERO)
            row += 1
    for i in range(n):
        base = row * cols
        for phi in range(tau):
            entries[base + z_col[(i, phi)]] = ONE
        rhs.append(ONE)
        row += 1
    if minor_part is not None:
        for key, members in minor_part.groups.items():
            base = row * cols
            for p in members:
                entries[base + minor_col[minor_keys[p]]] = ONE
            entries[base + yd_col[key]] = -ONE
            rhs.append(ZERO)
            row += 1

    lower = [ZERO] * nz
    upper = [ONE] * nz
    objective = []
    for i in range(n):
        objective.extend(config_costs[i])
    for key in type_keys:
        size = len(config_part.type_groups[key])
        for _ in range(tau):
            lower.append(ZERO)
            upper.append(Rat(size))
            objective.append(ZERO)
    for key in minor_keys:
        lower.append(ZERO)
        upper.append(Rat(minor_ub[key]))
        objective.append(inst.blocks[key[0]].w[key[1]])
    if minor_part is not None:
        for key, members in minor_part.groups.items():
            lower.append(ZERO)
            upper.append(Rat(sum(minor_ub[minor_keys[p]] for p in members)))
            objective.append(ZERO)
    for r in range(sd):
        lower.append(-slack_bounds[r])
        upper.append(slack_bounds[r])
        objective.append(ZERO)

    lp = LinearProgram(
        Matrix(rows, cols, entries), tuple(rhs), tuple(lower), tuple(upper), tuple(objective)
    )
    integer_vars = frozenset(range(nz, nz + ny)) | frozenset(
        range(nz + ny + nminor, nz + ny + nminor + nyd)
    )
    return Mip6Model(
        mixed=MixedModel(lp, integer_vars),
        tau=tau,
        config_costs=tuple(config_costs),
        config_part=config_part,
        z_col=z_col,
        block_type=block_type,
        configs=configs,
        minor_keys=minor_keys,
        minor_col=minor_col,
        minor_part=minor_part,
        minor_ub=minor_ub,
    )


def _fix_minor_lp(model, sd, mixed_sol):
    part = model.minor_part
    keys = model.minor_keys
    nm = len(keys)
    values = mixed_sol.values

    rows = sd + len(part.groups)
    entries = [ZERO] * (rows * nm)
    rhs = []
    for r in range(sd):
        base = r * nm
        acc = ZERO
        for p in range(nm):
            c = part.residuals[p][r]
            if c:
                entries[base + p] = c
                v = values[model.minor_col[keys[p]]]
                if v:
                    acc = acc + c * v
        rhs.append(acc)
    for g, (key, members) in enumerate(part.groups.items()):
        base = (sd + g) * nm
        acc = ZERO
        for p in members:
            entries[base + p] = ONE
            acc = acc + values[model.minor_col[keys[p]]]
        rhs.append(acc)

    lower = (ZERO,) * nm
    upper = tuple(Rat(model.minor_ub[k]) for k in keys)
    objective = tuple(model.mixed.lp.objective[model.minor_col[k]] for k in keys)
    return LinearProgram(Matrix(rows, nm, entries), tuple(rhs), lower, upper, objective)


def _round_minors(model, sd, mixed_sol, stats, trace):
    """Vertex of the minor restriction, then greedy in-group rounding."""
    if model.minor_part is None:
        return {}, ZERO
    keys = model.minor_keys
    lp = _fix_minor_lp(model, sd, mixed_sol)
    vertex = solve_lp_vertex(lp)
    stats.lp_pivots += vertex.pivots
    if vertex.status != LPStatus.OPTIMAL:
        raise PipelineInvariantError("minor restriction lost feasibility")
    if len(nonintegral_support(vertex)) > 2 * sd:
        raise PipelineInvariantError("minor fractional support exceeds 2s")

    out = {}
    cost = ZERO
    for g, (key, members) in enumerate(model.minor_part.groups.items()):
        plan = GroupRoundingPlan.build(
            (keys[p], vertex.values[p], lp.objective[p]) for p in members
        )
        if trace is not None:
            trace.group_plans.append(plan)
        rounded = greedy_group_round(plan)
        before = sum((vertex.values[p] for p in members), ZERO)
        after = ZERO
        for p in members:
            k = keys[p]
            v = rounded.get(k)
            if v is None:
                v = vertex.values[p]
            out[k] = int(v)
            after = after + v
            cost = cost + lp.objective[p] * v
        if before != after:
            raise PipelineInvariantError("minor group sum not conserved")
    if cost > vertex.objective_value:
        raise PipelineInvariantError("minor rounding increased the objective")
    return out, cost


def _major_configs(sblocks, splits, window, cap):
    """Major configurations of every block, or None once a block has none."""
    out = []
    for sb, split in zip(sblocks, splits):
        cfgs = enumerate_major_configs(sb, split, window, cap)
        if not cfgs:
            return None
        out.append(cfgs)
    return out


def solve_nfold(inst, params, trace=None):
    problems = validate_nonneg(inst)
    if problems:
        raise InvalidInstanceError(problems)
    eps = params.epsilon
    stats = SolveStats()

    sblocks = normalize_blocks(inst)
    if sblocks is None:
        return ApproxResult(SolveStatus.INFEASIBLE, None, None, None, None, 0, stats)

    t = inst.blocks[0].A.cols
    delta_cfg = max((blk.D.inf_norm() for blk in inst.blocks), default=ZERO)
    psi = eps / (4 * t)
    splits = [classify_and_split(sb, psi) for sb in sblocks]

    if all(k != SMALL for sp in splits for k in sp.kinds):
        return _solve_case1(inst, params, sblocks, splits, delta_cfg, stats, trace)
    return _solve_case2(inst, params, sblocks, splits, psi, stats, trace)


def _solve_case1(inst, params, sblocks, splits, delta_cfg, stats, trace):
    """All columns big: delegate to the configuration pipeline over the exact
    local solution sets, then restate the additive outcome multiplicatively."""
    eps = params.epsilon
    # the exact local solution sets: window [1, 1] on every surviving row
    config_lists = _major_configs(sblocks, splits, (ONE, ONE), params.config_cap)
    if config_lists is None:
        return ApproxResult(
            SolveStatus.INFEASIBLE, None, None, None, None, 0, stats,
            notes=("case1", "a block has no exact local solutions"),
        )
    cfg_inst = NFoldConfigInstance.build(
        [
            (blk.D, cfgs, blk.w)
            for blk, cfgs in zip(inst.blocks, config_lists)
        ],
        inst.b0,
    )
    bounds = tuple(
        min(eps * delta_cfg, eps * b) if b > 0 else ZERO for b in inst.b0
    )
    delegate = solve_config_core(cfg_inst, params, bounds, stats=stats, trace=trace)
    if delegate.status != SolveStatus.OK:
        delegate.notes = ("case1",) + delegate.notes
        return delegate
    report = violation_report(inst, delegate.x, MULTIPLICATIVE, eps, delegate.objective)
    if not report.within_bound:
        raise PipelineInvariantError("delegated solution escaped the multiplicative bound")
    return ApproxResult(
        SolveStatus.OK,
        delegate.x,
        delegate.objective,
        report,
        delegate.delta_used,
        delegate.refinements,
        stats,
        notes=("case1",),
    )


def _solve_case2(inst, params, sblocks, splits, psi, stats, trace):
    eps = params.epsilon
    sd = len(inst.b0)
    b_pos = [b for b in inst.b0 if b > 0]
    b_min = min(b_pos) if b_pos else ONE
    slack_bounds = tuple((eps / 2) * b if b > 0 else ZERO for b in inst.b0)
    window = (1 - eps / 2, 1 + eps / 2)

    config_lists = _major_configs(sblocks, splits, window, params.config_cap)
    if config_lists is None:
        return ApproxResult(
            SolveStatus.INFEASIBLE, None, None, None, None, 0, stats,
            notes=("case2", "a block has no major configurations in the window"),
        )
    tau = max(len(c) for c in config_lists)

    if params.delta_override is not None:
        delta1 = delta2 = params.delta_override
    else:
        # the normalizer relates the absolute selection-rounding error to the
        # smallest positive coupling target; the exact post-hoc check governs
        scale1 = max(
            (
                abs(v)
                for sb, sp, cfgs in zip(sblocks, splits, config_lists)
                for cfg in cfgs
                for v in sb.block.D.matvec(
                    tuple(lam * c for lam, c in zip(sp.lambdas, cfg))
                )
            ),
            default=ZERO,
        )
        nu1 = max(ONE, scale1 / b_min)
        delta1 = eps / (4 * sd * (2 * tau + 1) * nu1)
        delta2 = eps / (8 * sd)

    for refinement in range(params.refinement_limit + 1):
        model = build_mip6(
            inst, sblocks, splits, config_lists, delta1, delta2, slack_bounds, eps
        )
        mixed = solve_mip(model.mixed, node_limit=params.node_limit, stats=stats)
        if mixed.status == MIPStatus.INFEASIBLE:
            return ApproxResult(
                SolveStatus.INFEASIBLE, None, None, None, delta1, refinement, stats,
                notes=("case2",),
            )

        chosen, sel_cost = select_columns(model, sd, mixed, stats, trace)
        minors, minor_cost = _round_minors(model, sd, mixed, stats, trace)
        if sel_cost + minor_cost > mixed.objective_value:
            raise PipelineInvariantError("objective chain violated")

        clamped = []
        x_blocks = []
        for sb, split in zip(sblocks, splits):
            blk = sb.block
            xi = []
            for j in range(blk.A.cols):
                if split.kinds[j] == FIXED:
                    xi.append(0)
                    continue
                major = model.configs[sb.index][chosen[sb.index]][j]
                v = split.lambdas[j] * major + minors.get((sb.index, j), 0)
                if v > blk.u[j]:
                    clamped.append((sb.index, j, v - blk.u[j]))
                    v = blk.u[j]
                xi.append(v)
            x_blocks.append(tuple(xi))
        x = tuple(x_blocks)
        if trace is not None and clamped:
            trace.clamps.append(tuple(clamped))

        report = violation_report(inst, x, MULTIPLICATIVE, eps)
        if report.within_bound:
            return ApproxResult(
                SolveStatus.OK,
                x,
                report.objective,
                report,
                delta1,
                refinement,
                stats,
                notes=("case2",),
            )
        delta1 = delta1 / 2
        delta2 = delta2 / 2
        if clamped:
            # clamping is width-independent; shrinking psi turns small columns
            # big and removes the overshoot source entirely
            psi = psi / 2
            splits = [classify_and_split(sb, psi) for sb in sblocks]
            config_lists = _major_configs(sblocks, splits, window, params.config_cap)
            if config_lists is None:
                return ApproxResult(
                    SolveStatus.INFEASIBLE, None, None, None, delta1, refinement, stats,
                    notes=("case2", "no major configurations after psi refinement"),
                )
    raise RefinementLimitExceeded(
        f"violation bound not met after {params.refinement_limit} refinements"
    )
