"""Pipeline for general integer programs with few constraints.

Columns of H are grouped into boxes; one integer variable per occupied group
replaces the group's sum while the members relax to continuous variables
(coupled through canonical + residual splits of their columns).  The mixed
model is solved exactly, the continuous part is re-solved to a vertex with
the group sums pinned, and at most 2m surviving fractional variables are
rounded greedily within their groups.  A final exact check against the
permitted violation drives the halve-and-retry refinement of the box width.

The coupling rows carry slack columns bounded by the permitted violation, so
instances without exactly-feasible integer points still yield near-feasible
solutions; the model is infeasible only when not even the relaxed constraint
set admits an integer point (which certifies the original as infeasible).
"""

from dataclasses import dataclass

from .boxes import partition_columns
from .branch_bound import MIPStatus, MixedModel, SolveStats, solve_mip
from .errors import InvalidInstanceError, PipelineInvariantError, RefinementLimitExceeded
from .instances import ADDITIVE, validate_general, violation_report
from .linalg import Matrix
from .rationals import ONE, ZERO
from .results import ApproxResult, SolveStatus
from .rounding import GroupRoundingPlan, greedy_group_round
from .simplex import LinearProgram, LPStatus, nonintegral_support, solve_lp_vertex


@dataclass(frozen=True)
class GeneralModel:
    inst: object
    part: object
    mixed: MixedModel
    n: int
    group_keys: tuple  # box index per integer variable, column order n..n+G-1


def build_mip1(inst, part, slack_bound=None):
    """Mixed model with one integer group variable per occupied box.

    With slack_bound set, each coupling row gains a slack column bounded by
    +-slack_bound; any integer point x of the original program embeds via
    y_k = sum of its group members (slack zero), with equal objective.
    """
    m, n = inst.H.rows, inst.H.cols
    keys = tuple(part.groups.keys())
    g = len(keys)
    nslack = m if slack_bound is not None else 0
    cols = n + g + nslack

    entries = [ZERO] * ((m + g) * cols)
    # coupling rows: residual part on x, canonical part on y, optional slack
    for j in range(n):
        res = part.residuals[j]
        for i in range(m):
            entries[i * cols + j] = res[i]
    for k, key in enumerate(keys):
        canon = part.canonicals[key]
        for i in range(m):
            entries[i * cols + n + k] = canon[i]
    for i in range(nslack):
        entries[i * cols + n + g + i] = -ONE
    # group rows: members sum to the group variable
    for k, key in enumerate(keys):
        row = m + k
        for j in part.groups[key]:
            entries[row * cols + j] = ONE
        entries[row * cols + n + k] = -ONE

    lower = list(inst.l)
    upper = list(inst.u)
    for key in keys:
        lower.append(sum(inst.l[j] for j in part.groups[key]))
        upper.append(sum(inst.u[j] for j in part.groups[key]))
    for _ in range(nslack):
        lower.append(-slack_bound)
        upper.append(slack_bound)

    objective = list(inst.w) + [ZERO] * (g + nslack)
    rhs = tuple(inst.b) + (ZERO,) * g
    lp = LinearProgram(Matrix(m + g, cols, entries), rhs, tuple(lower), tuple(upper), tuple(objective))
    mixed = MixedModel(lp, frozenset(range(n, n + g)))
    return GeneralModel(inst, part, mixed, n, keys)


def restrict_lp2(model, mixed_sol):
    """LP over the x variables with residual sums and group sums pinned to the
    values attained by the mixed optimum; the mixed x itself stays feasible."""
    if mixed_sol.status != MIPStatus.OPTIMAL:
        raise ValueError("restrict_lp2 requires an optimal mixed solution")
    inst, part, n = model.inst, model.part, model.n
    m = inst.H.rows
    xstar = mixed_sol.values[:n]

    keys = model.group_keys
    rows = m + len(keys)
    entries = [ZERO] * (rows * n)
    rhs = []
    for i in range(m):
        acc = ZERO
        for j in range(n):
            r = part.residuals[j][i]
            if r:
                entries[i * n + j] = r
                if xstar[j]:
                    acc = acc + r * xstar[j]
        rhs.append(acc)
    for k, key in enumerate(keys):
        acc = ZERO
        for j in part.groups[key]:
            entries[(m + k) * n + j] = ONE
            acc = acc + xstar[j]
        rhs.append(acc)
    return LinearProgram(
        Matrix(rows, n, entries),
        tuple(rhs),
        tuple(inst.l),
        tuple(inst.u),
        tuple(inst.w),
    )


def claim1_check(sol, m):
    """At most 2m variables of an LP2 vertex take fractional values."""
    return len(nonintegral_support(sol)) <= 2 * m


def _round_groups(model, vertex, trace=None):
    inst, part = model.inst, model.part
    values = list(vertex.values)
    for key in model.group_keys:
        members = part.groups[key]
        plan = GroupRoundingPlan.build(
            (j, values[j], inst.w[j]) for j in members
        )
        if trace is not None:
            trace.group_plans.append(plan)
        for j, v in greedy_group_round(plan).items():
            values[j] = v
        before = sum((vertex.values[j] for j in members), ZERO)
        after = sum((values[j] for j in members), ZERO)
        if before != after:
            raise PipelineInvariantError("group sum not conserved by rounding")
    return tuple(int(v) for v in values)


def solve_general(inst, params, trace=None):
    problems, delta_inf = validate_general(inst)
    if problems:
        raise InvalidInstanceError(problems)
    m = inst.H.rows
    eps = params.epsilon
    bound = eps * delta_inf
    stats = SolveStats()

    delta = params.delta_override if params.delta_override is not None else eps / (2 * m)
    for refinement in range(params.refinement_limit + 1):
        part = partition_columns(inst.H, delta)
        model = build_mip1(inst, part, slack_bound=bound)
        mixed = solve_mip(model.mixed, node_limit=params.node_limit, stats=stats)
        if mixed.status == MIPStatus.INFEASIBLE:
            return ApproxResult(
                SolveStatus.INFEASIBLE, None, None, None, part.delta, refinement, stats
            )

        lp2 = restrict_lp2(model, mixed)
        vertex = solve_lp_vertex(lp2)
        stats.lp_pivots += vertex.pivots
        if vertex.status != LPStatus.OPTIMAL:
            raise PipelineInvariantError("pinned restriction lost feasibility")
        if not claim1_check(vertex, m):
            raise PipelineInvariantError(
                f"fractional support {len(nonintegral_support(vertex))} exceeds 2m={2 * m}"
            )
        if trace is not None:
            trace.lp2_vertices.append((lp2, vertex, m))

        x = _round_groups(model, vertex, trace)
        objective = sum((wv * xv for wv, xv in zip(inst.w, x)), ZERO)
        if objective > vertex.objective_value or vertex.objective_value > mixed.objective_value:
            raise PipelineInvariantError("objective chain violated")
        report = violation_report(inst, x, ADDITIVE, bound, objective)
        if report.within_bound:
            return ApproxResult(
                SolveStatus.OK, x, objective, report, part.delta, refinement, stats
            )
        delta = delta / 2
    raise RefinementLimitExceeded(
        f"violation bound not met after {params.refinement_limit} refinements"
    )
