"""Pipeline for general integer programs with few constraints.

Columns of H are grouped into boxes; one integer variable per occupied group
replaces the group's sum while the members relax to continuous variables
(coupled through canonical + residual splits of their columns): the grouped
part of ``boxes.coupled_model``.  The mixed model is solved exactly, the
continuous part is re-solved to a vertex with the group sums pinned
(``LinearProgram.restrict``), and at most 2m surviving fractional variables
are rounded greedily within their groups.  That rounding stage,
``round_within_groups``, also rounds the minor variables of nonnegative
n-fold case 2.  A final exact check against the permitted violation drives
the halve-and-retry refinement of the box width.

The coupling rows carry slack columns bounded by the permitted violation, so
instances without exactly-feasible integer points still yield near-feasible
solutions; the model is infeasible only when not even the relaxed constraint
set admits an integer point (which certifies the original as infeasible).
"""

from .boxes import coupled_model, partition_columns
from .branch_bound import MIPStatus, SolveStats, solve_mip
from .errors import InvalidInstanceError, PipelineInvariantError, RefinementLimitExceeded
from .instances import ADDITIVE, validate_general, violation_report
from .rationals import ZERO
from .results import ApproxResult, SolveStatus
from .rounding import GroupRoundingPlan, greedy_group_round
from .simplex import LPStatus, nonintegral_support, solve_lp_vertex


def build_mip1(inst, part, slack_bound):
    """Mixed model with one integer group variable per occupied box; each
    coupling row gains a slack column bounded by +-slack_bound."""
    return coupled_model(
        inst.b, (slack_bound,) * inst.H.rows, grouped=(part, inst.l, inst.u, inst.w)
    )


def restrict_lp2(model, mixed_sol):
    """LP over the x variables with residual sums and group sums pinned to the
    values attained by the mixed optimum; the mixed x itself stays feasible."""
    if mixed_sol.status != MIPStatus.OPTIMAL:
        raise ValueError("restrict_lp2 requires an optimal mixed solution")
    return model.restrict_grouped(mixed_sol.values)


def claim1_check(sol, m):
    """At most 2m variables of an LP2 vertex take fractional values."""
    return len(nonintegral_support(sol)) <= 2 * m


def round_within_groups(lp, part, m, pinned, stats, trace):
    """The grouped rounding stage of the general pipeline and of nonnegative
    n-fold case 2's minor variables.

    ``lp`` is the pinned restriction over the grouped variables, in the
    column order of ``part``, with its m coupling rows first; ``pinned`` is
    the mixed optimum's values of those variables.  The restriction is solved
    to a vertex (at most 2m fractional entries), and each group's fractional
    members are rounded greedily, which conserves the group sum.  Returns the
    rounded values and their exact cost, which is at most the vertex
    objective, itself at most the cost of ``pinned``.
    """
    vertex = solve_lp_vertex(lp)
    stats.lp_pivots += vertex.pivots
    if vertex.status != LPStatus.OPTIMAL:
        raise PipelineInvariantError("pinned restriction lost feasibility")
    if not claim1_check(vertex, m):
        raise PipelineInvariantError(
            f"fractional support {len(nonintegral_support(vertex))} exceeds 2m={2 * m}"
        )
    if trace is not None:
        trace.lp2_vertices.append((lp, vertex, m))

    values = list(vertex.values)
    for members in part.groups.values():
        plan = GroupRoundingPlan.build((j, values[j], lp.objective[j]) for j in members)
        if trace is not None:
            trace.group_plans.append(plan)
        for j, v in greedy_group_round(plan).items():
            values[j] = v
        before = sum((vertex.values[j] for j in members), ZERO)
        after = sum((values[j] for j in members), ZERO)
        if before != after:
            raise PipelineInvariantError("group sum not conserved by rounding")
    x = tuple(int(v) for v in values)
    cost = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    pinned_cost = sum((c * v for c, v in zip(lp.objective, pinned)), ZERO)
    if cost > vertex.objective_value or vertex.objective_value > pinned_cost:
        raise PipelineInvariantError("objective chain violated")
    return x, cost


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
        x, objective = round_within_groups(
            lp2, part, m, mixed.values[model.x.start : model.x.stop], stats, trace
        )
        report = violation_report(inst, x, ADDITIVE, bound, objective)
        if report.within_bound:
            return ApproxResult(
                SolveStatus.OK, x, objective, report, part.delta, refinement, stats
            )
        delta = delta / 2
    raise RefinementLimitExceeded(
        f"violation bound not met after {params.refinement_limit} refinements"
    )
