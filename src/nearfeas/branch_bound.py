"""Exact branch-and-bound for models with a designated set of integer variables.

Depth-first search over the integer-variable box with exact LP bounds from
the simplex module; pruning compares rationals exactly, so the returned
objective is the true mixed-integer optimum.  Branches on the integer
variable whose relaxation value is farthest from an integer (ties to the
smallest index), exploring the floor side first.
"""

import enum
from dataclasses import dataclass

from .errors import NodeLimitExceeded, PipelineInvariantError
from .rationals import ZERO, is_integral, rat_floor
from .simplex import LinearProgram, LPStatus, solve_lp_vertex


class MIPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class MixedModel:
    lp: LinearProgram
    integer_vars: frozenset

    def __post_init__(self):
        c = self.lp.matrix.cols
        for j in self.integer_vars:
            if not 0 <= j < c:
                raise ValueError("integer variable index out of range")
            if not (is_integral(self.lp.lower[j]) and is_integral(self.lp.upper[j])):
                raise ValueError("integer variable with non-integer bounds")


@dataclass
class MixedSolution:
    status: MIPStatus
    values: tuple | None
    objective_value: object
    nodes: int = 0
    lp_pivots: int = 0


@dataclass
class SolveStats:
    """Cumulative effort counters threaded through a pipeline run."""

    lp_pivots: int = 0
    bb_nodes: int = 0


def solve_mip(model, node_limit=10**6, stats=None):
    """Exact optimum over assignments where integer_vars take integer values.

    Raises NodeLimitExceeded rather than returning an approximate answer.
    """
    lp = model.lp
    int_vars = sorted(model.integer_vars)
    nodes = 0
    pivots = 0
    best = None  # (objective, values)

    # stack entries: bound overrides {j: (lo, hi)}
    stack = [{}]
    while stack:
        overrides = stack.pop()
        if nodes >= node_limit:
            raise NodeLimitExceeded(f"branch-and-bound exceeded {node_limit} nodes")
        nodes += 1

        node_lp = _with_bounds(lp, overrides)
        if node_lp is None:
            continue
        sol = solve_lp_vertex(node_lp)
        pivots += sol.pivots
        if sol.status == LPStatus.INFEASIBLE:
            continue
        if sol.status == LPStatus.UNBOUNDED:
            raise PipelineInvariantError("unbounded relaxation under finite bounds")
        if best is not None and sol.objective_value >= best[0]:
            continue

        branch_var = -1
        branch_dist = ZERO
        for j in int_vars:
            v = sol.values[j]
            if is_integral(v):
                continue
            f = v - rat_floor(v)
            dist = min(f, 1 - f)
            if dist > branch_dist:
                branch_dist = dist
                branch_var = j
        if branch_var < 0:
            best = (sol.objective_value, sol.values)
            continue

        v = sol.values[branch_var]
        lo, hi = overrides.get(
            branch_var, (lp.lower[branch_var], lp.upper[branch_var])
        )
        down = dict(overrides)
        down[branch_var] = (lo, rat_floor(v))
        up = dict(overrides)
        up[branch_var] = (rat_floor(v) + 1, hi)
        stack.append(up)
        stack.append(down)  # explored first

    if stats is not None:
        stats.bb_nodes += nodes
        stats.lp_pivots += pivots
    if best is None:
        return MixedSolution(MIPStatus.INFEASIBLE, None, None, nodes, pivots)
    return MixedSolution(MIPStatus.OPTIMAL, best[1], best[0], nodes, pivots)


def _with_bounds(lp, overrides):
    if not overrides:
        return lp
    lower = list(lp.lower)
    upper = list(lp.upper)
    for j, (lo, hi) in overrides.items():
        if lo > hi:
            return None
        lower[j] = lo
        upper[j] = hi
    return LinearProgram(lp.matrix, lp.rhs, tuple(lower), tuple(upper), lp.objective)
