"""Integralization of the few remaining fractional variables.

Two mechanisms, each preserving its constraint family exactly and never
increasing the objective: greedy within-group rounding (group sums are
integers, so rounding up the cheapest gamma fractional members and flooring
the rest conserves the sum), and an exact LP re-solve over a totally
unimodular bipartite restriction (vertex solutions of TU systems with
integral data are integral).
"""

from dataclasses import dataclass

from .errors import PipelineInvariantError
from .linalg import Matrix
from .rationals import is_integral
from .simplex import LinearProgram, LPStatus, Tableau


@dataclass(frozen=True)
class GroupRoundingPlan:
    """Fractional members of one group, sorted by nondecreasing weight."""

    members: tuple  # variable keys, sorted by (weight, key)
    floors: tuple
    gamma: int

    @classmethod
    def build(cls, entries, den):
        """entries: iterable of (key, value numerator, weight) for one group,
        each value being its numerator over the positive int ``den``; floors
        and fractional parts come from ``divmod``."""
        fractional = []
        for key, value, weight in entries:
            fl, f = divmod(value, den)
            if f:
                fractional.append((weight, key, fl, f))
        fractional.sort(key=lambda e: (e[0], e[1]))
        gamma, rest = divmod(sum(e[3] for e in fractional), den)
        if rest:
            raise PipelineInvariantError("group fractional mass is not an integer")
        return cls(tuple(e[1] for e in fractional), tuple(e[2] for e in fractional), gamma)


def greedy_group_round(plan):
    """Round the gamma cheapest fractional members up, the rest down.

    Returns {key: integer value}; the group sum is conserved exactly and the
    group objective cannot exceed the fractional group objective.
    """
    out = {}
    for pos, key in enumerate(plan.members):
        out[key] = plan.floors[pos] + (1 if pos < plan.gamma else 0)
    return out


@dataclass(frozen=True)
class AssignmentRestriction:
    """Bipartite system over the fractional entries of an assignment.

    Every variable appears in exactly one left row and one right row, so the
    constraint matrix is the incidence matrix of a bipartite graph and hence
    totally unimodular; the marginals must be integers.
    """

    keys: tuple  # variable keys, in deterministic order
    left_of: tuple  # left row index per variable
    right_of: tuple  # right row index per variable
    left_rhs: tuple  # integer marginals
    right_rhs: tuple
    costs: tuple

    def __post_init__(self):
        for rhs in (*self.left_rhs, *self.right_rhs):
            if not is_integral(rhs):
                raise PipelineInvariantError("non-integral marginal in TU restriction")


def tu_round(restriction, stats=None):
    """Exact 0/1 re-solve of the restriction; returns {key: 0 or 1}.

    Both marginal families are preserved exactly and the restricted objective
    does not exceed the fractional restricted objective.
    """
    nv = len(restriction.keys)
    if nv == 0:
        return {}
    nl = len(restriction.left_rhs)
    nr = len(restriction.right_rhs)
    # 0/1 incidence rows over scale 1: each variable in one left and one right row
    nonzeros = [[] for _ in range(nl + nr)]
    for k in range(nv):
        nonzeros[restriction.left_of[k]].append((k, 1))
        nonzeros[nl + restriction.right_of[k]].append((k, 1))
    lp = LinearProgram(
        Matrix(nl + nr, nv, nonzeros, [1] * (nl + nr)),
        tuple(restriction.left_rhs) + tuple(restriction.right_rhs),
        (0,) * nv,
        (1,) * nv,
        restriction.costs,
    )
    tab = Tableau(lp)
    status = tab.solve()
    if stats is not None:
        stats.count_cold_solve(tab)
    if status != LPStatus.OPTIMAL:
        raise PipelineInvariantError("TU restriction lost feasibility")
    values, den, _, _ = tab.vertex_numerators()
    out = {}
    for k, key in enumerate(restriction.keys):
        v = values[k]
        if v != 0 and v != den:
            raise PipelineInvariantError("TU vertex is not 0/1")
        out[key] = v // den
    return out
