"""Pipeline for block IPs whose blocks choose from explicit configuration sets.

Each block contributes one column D^i x^i from its value matrix of integer
rows, with one column per distinct configuration of the block; blocks whose
value matrices fall columnwise into the same boxes share a type, and one
integer variable per (type, column) counts selections across the type's
blocks: the selection part of ``boxes.coupled_model``.  The exact mixed
solve ends at a basic optimal solution, whose selection variables already
are an optimal vertex of the LP at fixed counts (``fix_counts_lp``; few
fractional entries survive by the two-part rank argument); they are
integralized by an exact re-solve over the totally unimodular bipartite
restriction.  Nonnegative n-fold case 2 runs the same selection stage,
``select_columns``, which checks the optimum's numerators and integer costs;
its Rats are the selection's cost and the restriction's right marginals.

The coupling rows carry slack columns bounded per row by the permitted
violation; slack-bounded infeasibility is therefore independent of the box
width and certifies that no selection meets the bound, which is reported as
NEAR_FEASIBILITY_UNATTAINABLE together with a best-effort (coupling-free)
cost-minimal selection and its exact violation.  Structural infeasibility
(an empty configuration set) is the only INFEASIBLE outcome.
"""

from dataclasses import dataclass

from .backend import dot
from .boxes import coupled_model, partition_config_columns
from .branch_bound import SolveStats, solve_mip
from .errors import InvalidInstanceError, PipelineInvariantError
from .instances import ADDITIVE, validate_config, violation_report
from .linalg import Matrix
from .rationals import ZERO, Rat, integer_row
from .results import ApproxResult, SolveStatus, refine
from .rounding import AssignmentRestriction, tu_round


@dataclass(frozen=True)
class NormalizedConfig:
    """Per-block configs deduplicated; tau is the largest distinct count,
    which sets the width delta0 and the s(2 tau + 1) support bound."""

    inst: object
    tau: int
    configs: tuple  # per block: tuple of its distinct integer vectors
    value_mats: tuple  # per block: Matrix with columns D^i p^i_phi, one per config
    costs: tuple  # per block: tuple of exact config costs, one per config


def normalize_configs(inst):
    """Returns the normalized instance, or None if some config set is empty."""
    configs = []
    value_mats = []
    costs = []
    for blk in inst.blocks:
        distinct = tuple(dict.fromkeys(blk.configs))
        if not distinct:
            return None
        mat, cfg_costs = value_columns(blk.D, blk.weights, distinct)
        configs.append(distinct)
        value_mats.append(mat)
        costs.append(cfg_costs)
    tau = max(len(cfgs) for cfgs in configs)
    return NormalizedConfig(inst, tau, tuple(configs), tuple(value_mats), tuple(costs))


def value_columns(D, weights, vectors):
    """The matrix whose column phi is D v_phi, and the exact costs w.v_phi:
    integer sums over D's row scales and over the weights' common
    denominator; a Rat is built only for each cost."""
    unit, w = integer_row(weights)
    nonzeros = [[(phi, a) for phi, v in enumerate(vectors) if (a := dot(nz, v))]
                for nz in D.nonzeros]
    costs = tuple(Rat(sum(a * b for a, b in zip(w, v) if b), unit) for v in vectors)
    return Matrix(D.rows, len(vectors), nonzeros, D.scales), costs


def build_mip4(norm, part, slack_bounds):
    """Mixed model over selection variables z and per-(type, column) counts y;
    each coupling row r gains a slack column bounded by +-slack_bounds[r]."""
    return coupled_model(norm.inst.b0, slack_bounds, selection=(part, norm.costs))


def fix_counts_lp(model, mixed_sol):
    """The optimal vertex of the fixed-count LP (z, with every other column
    pinned at the mixed optimum): the optimum's own z, which come first, as
    numerators over ``mixed_sol.den``.  ``solve_mip`` branches only on
    counts; see ``solver_general.restrict_lp2``."""
    return mixed_sol.numerators[: model.z[-1].stop]


def build_restriction(model, values, den):
    """Bipartite restriction over the fractional selection entries, for
    ``values`` the selections' numerators over ``den``."""
    part = model.config_part
    block_type = {i: key for key, members in part.type_groups.items() for i in members}
    frac = [(i, phi) for i, cols in enumerate(model.z)
            for phi, j in enumerate(cols) if values[j] % den]
    if not frac:
        return None
    blocks = sorted({i for i, _ in frac})
    pairs = sorted({(block_type[i], phi) for i, phi in frac})
    left_index = {i: r for r, i in enumerate(blocks)}
    right_index = {p: r for r, p in enumerate(pairs)}

    # a block's left marginal is 1 less its integral selections; a pair's
    # right marginal is the mass of its fractional ones
    left_rhs = [1 - sum(v // den for j in model.z[i] if not (v := values[j]) % den) for i in blocks]
    right_rhs = [
        Rat(sum(v for i in part.type_groups[key] if (v := values[model.z[i][phi]]) % den), den)
        for key, phi in pairs
    ]

    return AssignmentRestriction(
        tuple(frac),
        tuple(left_index[i] for i, _ in frac),
        tuple(right_index[(block_type[i], phi)] for i, phi in frac),
        tuple(left_rhs),
        tuple(right_rhs),
        tuple(model.mixed.lp.objective[model.z[i][phi]] for i, phi in frac),
    )


def _selection_from_values(model, selected, den):
    """Per-block selected column; exactly one per block after rounding."""
    chosen = []
    for i, cols in enumerate(model.z):
        picks = []
        for phi, j in enumerate(cols):
            v = selected[j]
            if v == den:
                picks.append(phi)
            elif v != 0:
                raise PipelineInvariantError("selection entry not 0/1 after rounding")
        if len(picks) != 1:
            raise PipelineInvariantError("block does not select exactly one column")
        chosen.append(picks[0])
    return tuple(chosen)


def select_columns(model, mixed_sol, stats):
    """The selection stage of both block pipelines.

    The selection part of the mixed optimum is the fixed-count LP's optimal
    vertex (``fix_counts_lp``), so at most s(2 tau + 1) of its entries are
    fractional for s coupling rows, tau the widest block; its bipartite
    restriction is made integral by an exact TU re-solve, and each block is
    decoded to its one selected column.  Returns the columns and their exact
    cost, which is at most the cost of the unrounded selections.  Selections
    stay numerators over the optimum's denominator and costs integers over
    their common denominator, so every check is an integer comparison; the
    cost is the one Rat.
    """
    values = fix_counts_lp(model, mixed_sol)
    den = mixed_sol.den
    support = sum(1 for v in values if v % den)
    s = len(model.coupling)
    tau = max(len(cols) for cols in model.z)
    if support > s * (2 * tau + 1):
        raise PipelineInvariantError(f"fractional support {support} exceeds s(2tau+1)")

    # the selection numerators with the TU rounding applied
    selected = list(values)
    restriction = build_restriction(model, values, den)
    if restriction is not None:
        rounded = tu_round(restriction, stats=stats)
        for (i, phi), v in rounded.items():
            selected[model.z[i][phi]] = v * den
        _check_marginals(model, values, selected)

    chosen = _selection_from_values(model, selected, den)
    costs = model.mixed.lp.objective[: len(values)]
    unit, weights = integer_row(costs)
    cost = sum(weights[model.z[i][phi]] for i, phi in enumerate(chosen))
    if cost * den > sum(w * v for w, v in zip(weights, values) if v):
        raise PipelineInvariantError("objective chain violated")
    return chosen, Rat(cost, unit)


def _attempt(norm, delta, slack_bounds, params, stats):
    """One mixed solve + selection stage at a given width.

    Returns x, or None when the slack-bounded model is infeasible (a
    width-independent fact).
    """
    part = partition_config_columns(norm.value_mats, delta)
    model = build_mip4(norm, part, slack_bounds=slack_bounds)
    mixed = solve_mip(model.mixed, node_limit=params.node_limit, stats=stats)
    if mixed.numerators is None:
        return None
    chosen, _ = select_columns(model, mixed, stats)
    return tuple(norm.configs[i][phi] for i, phi in enumerate(chosen))


def _check_marginals(model, values, selected):
    """Each type's selections of each column sum to the same numerator
    before and after the rounding."""
    for members in model.config_part.type_groups.values():
        for phi in range(len(model.z[members[0]])):
            before = sum(values[model.z[i][phi]] for i in members)
            after = sum(selected[model.z[i][phi]] for i in members)
            if before != after:
                raise PipelineInvariantError("type marginal not conserved by rounding")


def _free_bounds(norm):
    """Slack bounds large enough never to bind (best-effort diagnostics)."""
    return tuple(
        abs(b) + 1 + sum(Rat(max([abs(a) for _, a in mat.nonzeros[r]], default=0), mat.scales[r])
                         for mat in norm.value_mats)
        for r, b in enumerate(norm.inst.b0)
    )


def solve_config_core(inst, params, violation_bounds, stats):
    """Shared core: per-row violation bounds decide acceptance; the attached
    report uses the uniform additive bound max(violation_bounds).  inst must
    pass ``validate_config``: its callers validate, or build it valid."""
    norm = normalize_configs(inst)
    if norm is None:
        return ApproxResult(SolveStatus.INFEASIBLE, stats=stats)

    report_bound = max(violation_bounds) if violation_bounds else ZERO
    s = len(inst.b0)
    t = inst.blocks[0].D.cols
    kappa = max(inst.kappa(), 1)
    tau = norm.tau
    delta = params.delta_override
    if delta is None:
        delta = params.epsilon / (s * (2 * tau + 1) * kappa * t)

    def attempt(delta):
        status = SolveStatus.OK
        x = _attempt(norm, delta, violation_bounds, params, stats)
        if x is None:
            # No selection satisfies the per-row bounds, at any width: report
            # the best-effort coupling-free optimum and its exact violation.
            status = SolveStatus.NEAR_FEASIBILITY_UNATTAINABLE
            x = _attempt(norm, delta, _free_bounds(norm), params, stats)
            if x is None:
                raise PipelineInvariantError("coupling-free model cannot be infeasible")
        report = violation_report(inst, x, ADDITIVE, report_bound)
        within = all(abs(r) <= b for r, b in zip(report.residual, violation_bounds))
        if within or status != SolveStatus.OK:
            return ApproxResult(status, x, report.objective, report, delta, stats=stats)
        return None

    return refine(attempt, delta, params.refinement_limit)


def solve_nfold_config(inst, params):
    """Additive guarantee: every coupling row within epsilon * max_i ||D^i||."""
    problems, delta_inf = validate_config(inst)
    if problems:
        raise InvalidInstanceError(problems)
    bound = params.epsilon * delta_inf
    return solve_config_core(inst, params, tuple(bound for _ in inst.b0), SolveStats())
