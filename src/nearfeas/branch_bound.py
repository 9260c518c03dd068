"""Exact branch-and-bound for models with a designated set of integer variables.

Depth-first search over the integer-variable box with exact LP bounds from
the simplex module; each node reads its vertex as integers over one
denominator (``Tableau.vertex_numerators``), and pruning and branching
compare those integers exactly, so the returned objective is the true
mixed-integer optimum.  The incumbent is kept in that form, and the
``MixedSolution`` carries it: the one Rat built is the optimal objective.
Branches on the integer variable whose relaxation value is farthest from an
integer (ties to the smallest index), exploring the floor side first.

Only the root LP is solved cold.  A child differs from its parent by one
bound of a basic variable, so it is re-optimized from the parent's optimal
tableau by the bounded dual simplex (``Tableau.reoptimize``, after Koberstein
2005): the down child continues on the parent's tableau in place, and the up
child waits on the stack with a snapshot of it.  A child is pruned as soon as
its dual simplex's objective reaches the incumbent's (a cutoff that trusts
dual feasibility, as pruning an optimal node does; a dual certificate of node
optimality must cover cut-off nodes too).  Every optimal node vertex is
checked against the equations and the node's bounds, and every infeasible
node, the root included, by its Farkas certificate.
"""

from dataclasses import dataclass

from .errors import NodeLimitExceeded
from .rationals import Rat, is_integral
from .simplex import LinearProgram, LPStatus, Tableau


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
    """The optimum as integers: x_j is ``numerators[j] / den``, den > 0
    (``numerators`` is None when infeasible); ``values`` builds the Rats."""

    numerators: list | None
    den: int
    objective_value: object
    nodes: int = 0
    lp_pivots: int = 0

    @property
    def values(self):
        return None if self.numerators is None else tuple(Rat(v, self.den) for v in self.numerators)


@dataclass
class SolveStats:
    """Cumulative effort counters threaded through a pipeline run.

    ``lp_pivots`` sums the crash pivots of the cold solves and the dual
    pivots of every solve, cold or a child's; ``lp_dual_flips`` counts the
    bound flips of the long dual steps, which are not pivots.
    ``bb_infeasible`` counts nodes whose LP is infeasible, ``bb_pruned``
    nodes cut off by the incumbent's objective (some before their LP proved
    infeasible), ``bb_incumbents`` incumbent updates, and ``bb_max_depth`` is
    the deepest node of any search (the root is 0).
    """

    lp_pivots: int = 0
    lp_crash_pivots: int = 0
    lp_dual_pivots: int = 0
    lp_dual_flips: int = 0
    bb_nodes: int = 0
    bb_infeasible: int = 0
    bb_pruned: int = 0
    bb_incumbents: int = 0
    bb_max_depth: int = 0

    def count_lp(self, tab):
        """Add the pivots and flips of ``tab``'s last solve or
        re-optimization, by kind and in total."""
        self.lp_crash_pivots += tab.crash_pivots
        self.lp_dual_pivots += tab.pivots - tab.crash_pivots
        self.lp_dual_flips += tab.flips
        self.lp_pivots += tab.pivots


def solve_mip(model, node_limit=10**6, stats=None):
    """Exact optimum over assignments where integer_vars take integer values.

    Counts into ``stats`` when given, a search stopped by its limit too;
    ``node_limit`` and the solution's counts cover this call alone.  Raises
    NodeLimitExceeded rather than returning an approximate answer.
    """
    lp = model.lp
    int_vars = sorted(model.integer_vars)
    run = SolveStats() if stats is None else stats
    nodes0, pivots0 = run.bb_nodes, run.lp_pivots
    best = None  # (cost, cost_den, values, den) of vertex_numerators

    # stack entries: (tableau, branched variable, its new bounds, depth); the
    # root carries no bound change and is solved cold
    stack = [(Tableau(lp), None, None, None, 0)]
    while stack:
        tab, j, lo, hi, depth = stack.pop()
        if run.bb_nodes - nodes0 >= node_limit:
            raise NodeLimitExceeded(f"branch-and-bound exceeded {node_limit} nodes")
        run.bb_nodes += 1
        run.bb_max_depth = max(run.bb_max_depth, depth)

        if j is None:
            status = tab.solve()
        else:
            status = tab.reoptimize(j, lo, hi, None if best is None else best[:2])
        run.count_lp(tab)
        if status == LPStatus.INFEASIBLE:
            run.bb_infeasible += 1
            continue
        if status == LPStatus.CUTOFF:
            run.bb_pruned += 1
            continue
        # the checked vertex as integers over one positive denominator
        values, den, cost, cost_den = tab.vertex_numerators()

        # the integer variable farthest from an integer: the distance is
        # min(f, 1 - f) for the fractional part f, here its numerator over den
        branch_var = -1
        branch_dist = 0
        for k in int_vars:
            f = values[k] % den
            if not f:
                continue
            dist = min(f, den - f)
            if dist > branch_dist:
                branch_dist = dist
                branch_var = k
        if branch_var < 0:
            best = (cost, cost_den, values, den)
            run.bb_incumbents += 1
            continue

        # each child tightens one bound and keeps the other (None)
        fl = values[branch_var] // den
        stack.append((tab.copy(), branch_var, fl + 1, None, depth + 1))
        stack.append((tab, branch_var, None, fl, depth + 1))  # explored first

    counts = (run.bb_nodes - nodes0, run.lp_pivots - pivots0)
    if best is None:
        return MixedSolution(None, 1, None, *counts)
    cost, cost_den, values, den = best
    return MixedSolution(values, den, Rat(cost, cost_den), *counts)
