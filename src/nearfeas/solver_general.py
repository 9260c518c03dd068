"""Pipeline for general integer programs with few constraints.

Columns of H are grouped into boxes; one integer variable per occupied group
replaces the group's sum while the members relax to continuous variables
(coupled through canonical + residual splits of their columns): the grouped
part of ``boxes.coupled_model``.  The mixed model is solved exactly to a
basic optimal solution, whose continuous part already is an optimal vertex
of the LP with the group sums pinned (``restrict_lp2``), so at most 2m of
its variables are fractional; they are rounded greedily within their
groups.  That rounding stage, ``round_within_groups``, also rounds the minor
variables of nonnegative n-fold case 2; it reads the optimum's numerators
and integer costs, and its one Rat is the rounded cost.  ``results.refine``
halves the width, up to its limit, until the exact violation check passes.

The coupling rows carry slack columns bounded by the permitted violation, so
instances without exactly-feasible integer points still yield near-feasible
solutions; the model is infeasible only when not even the relaxed constraint
set admits an integer point (which certifies the original as infeasible).
"""

from .boxes import coupled_model, partition_columns
from .branch_bound import MIPStatus, SolveStats, solve_mip
from .errors import InvalidInstanceError, PipelineInvariantError
from .instances import ADDITIVE, validate_general, violation_report
from .rationals import Rat, integer_row
from .results import ApproxResult, SolveStatus, refine
from .rounding import GroupRoundingPlan, greedy_group_round


def build_mip1(inst, part, slack_bound):
    """Mixed model with one integer group variable per occupied box; each
    coupling row gains a slack column bounded by +-slack_bound."""
    return coupled_model(
        inst.b, (slack_bound,) * inst.H.rows, grouped=(part, inst.l, inst.u, inst.w)
    )


def restrict_lp2(model, mixed_sol):
    """The optimal vertex of LP2, the LP over the grouped variables x with
    every other column pinned at the mixed optimum: that optimum's own x, as
    numerators over ``mixed_sol.den``.

    ``solve_mip`` returns a basic optimal solution of its last LP and never
    branches on x, so its x part is a vertex of LP2 (a vertex of a polytope
    that lies in a slice is a vertex of the slice; A. Schrijver, *Theory of
    Linear and Integer Programming*, 1986, ch. 8), and an optimal one, since
    a cheaper x would give a cheaper mixed solution."""
    return mixed_sol.numerators[model.x.start : model.x.stop]


def round_within_groups(model, mixed_sol):
    """The grouped rounding stage of the general pipeline and of nonnegative
    n-fold case 2's minor variables.

    The grouped part of the mixed optimum is LP2's optimal vertex
    (``restrict_lp2``), so at most 2m of its entries are fractional for the
    m coupling rows; each group's fractional members are rounded greedily,
    which conserves the group sum.  Returns the rounded values, in the
    column order of ``model.part``, and their exact cost, which is at most
    the cost of the unrounded values.  Values stay numerators over the
    optimum's denominator and costs integers over their common denominator,
    so every check is an integer comparison; the cost is the one Rat.
    """
    vertex = restrict_lp2(model, mixed_sol)
    den = mixed_sol.den
    m = len(model.coupling)
    support = sum(1 for v in vertex if v % den)
    if support > 2 * m:
        raise PipelineInvariantError(f"fractional support {support} exceeds 2m={2 * m}")

    costs = model.mixed.lp.objective[model.x.start : model.x.stop]
    unit, weights = integer_row(costs)
    x = [v // den for v in vertex]
    for members in model.part.groups.values():
        plan = GroupRoundingPlan.build(((j, vertex[j], weights[j]) for j in members), den)
        for j, v in greedy_group_round(plan).items():
            x[j] = v
        if sum(vertex[j] for j in members) != den * sum(x[j] for j in members):
            raise PipelineInvariantError("group sum not conserved by rounding")
    cost = sum(w * v for w, v in zip(weights, x))
    if cost * den > sum(w * v for w, v in zip(weights, vertex)):
        raise PipelineInvariantError("objective chain violated")
    return tuple(x), Rat(cost, unit)


def solve_general(inst, params):
    problems, delta_inf = validate_general(inst)
    if problems:
        raise InvalidInstanceError(problems)
    m = inst.H.rows
    eps = params.epsilon
    bound = eps * delta_inf
    stats = SolveStats()

    def attempt(delta):
        part = partition_columns(inst.H, delta)
        model = build_mip1(inst, part, slack_bound=bound)
        mixed = solve_mip(model.mixed, node_limit=params.node_limit, stats=stats)
        if mixed.status == MIPStatus.INFEASIBLE:
            return ApproxResult(SolveStatus.INFEASIBLE, delta_used=part.delta, stats=stats)
        x, _ = round_within_groups(model, mixed)
        report = violation_report(inst, x, ADDITIVE, bound)
        if report.within_bound:
            return ApproxResult(SolveStatus.OK, x, report.objective, report, part.delta, stats=stats)
        return None

    delta = params.delta_override if params.delta_override is not None else eps / (2 * m)
    return refine(attempt, delta, params.refinement_limit)
