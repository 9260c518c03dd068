"""Reductions from the covered application problems to the solver instances.

Knapsack inequalities become equalities through slack variables (one per
dimension, bounded by the capacity).  Machine-load inequalities in scheduling
become equalities through one slack block per machine whose configurations
enumerate the integral slack range 0..Cmax; rational processing times are
pre-scaled to integers, and decoders report in the original units.
"""

from dataclasses import dataclass

from .errors import InvalidInstanceError
from .instances import ConfigBlock, GeneralIP, NFoldConfigInstance, SchedulingInstance
from .instances import parse_int_table, parse_ints, validate_scheduling
from .linalg import Matrix
from .rationals import ZERO, Rat, as_rat, integer_row


def knapsack_to_general(profits, weights, capacities):
    """Multidimensional knapsack as a minimization instance (negated profits).

    weights is a list of m rows of n nonnegative integers, capacities m
    nonnegative integers; both pass the instance files' integer codec, so any
    other value raises InstanceFormatError at its path (``$.weights[i][j]``,
    ``$.capacities[i]``).  Returns (instance, decoder) where the decoder
    strips the slack variables off a solution vector.
    """
    profits = [as_rat(v) for v in profits]
    caps = list(parse_ints(capacities, "$.capacities"))
    m = len(caps)
    n = len(profits)
    if m < 1:
        raise ValueError("at least one capacity dimension is required")
    rows = [list(row) for row in parse_int_table(weights, "$.weights")]
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ValueError("dimension mismatch: weights")
    if any(v < 0 for row in rows for v in row) or any(c < 0 for c in caps) or any(
        v < 0 for v in profits
    ):
        raise ValueError("knapsack data must be nonnegative")

    H = [row + [1 if k == i else 0 for k in range(m)] for i, row in enumerate(rows)]
    inst = GeneralIP.build(
        H,
        caps,
        [-v for v in profits] + [ZERO] * m,
        [0] * (n + m),
        [1] * n + caps,
    )

    def decode(x):
        return tuple(int(v) for v in x[:n])

    return inst, decode


@dataclass(frozen=True)
class ScheduleDecode:
    assignment: tuple  # machine index per job
    loads: tuple  # exact per-machine load, original units
    makespan: object
    cost: object  # total assignment cost (zero without costs)


def scheduling_to_config(p, cmax, costs=None):
    """Feasibility test for makespan at most cmax on unrelated machines.

    p is n x m nonnegative processing times (rationals allowed; they are
    scaled to integers internally), costs an optional n x m cost table used
    as the objective.  Data that ``validate_scheduling`` rejects raises
    InvalidInstanceError.  Returns (instance, decoder); the decoder maps a
    per-block solution back to an assignment with exact loads and makespan
    in the original units.
    """
    sched = SchedulingInstance.build(p, cmax, costs)
    problems, _ = validate_scheduling(sched)
    if problems:
        raise InvalidInstanceError(problems)
    p_rows, cmax, costs = sched.jobs, sched.cmax, sched.costs
    n = len(p_rows)
    m = len(p_rows[0]) if n else 1

    _, (cmax_i, *times) = integer_row([cmax, *(v for row in p_rows for v in row)])
    units = tuple(tuple(1 if k == h else 0 for k in range(m)) for h in range(m))

    # the core's records are built as they are, not parsed again: every
    # value is an int or a Rat made here
    zeros = (ZERO,) * m
    ones = [1] * m
    blocks = []
    for i in range(n):
        diag = times[i * m : i * m + m]
        D = Matrix(m, m, [[(h, a)] if a else [] for h, a in enumerate(diag)], ones)
        blocks.append(ConfigBlock(D, units, costs[i] if costs is not None else zeros))
    identity = Matrix(m, m, [[(h, 1)] for h in range(m)], ones)
    for h in range(m):
        slack_cfgs = tuple(tuple(k if j == h else 0 for j in range(m)) for k in range(cmax_i + 1))
        blocks.append(ConfigBlock(identity, slack_cfgs, zeros))
    inst = NFoldConfigInstance(tuple(blocks), (Rat(cmax_i),) * m)

    def decode(x):
        assignment = []
        loads = [ZERO] * m
        cost = ZERO
        for i in range(n):
            picks = [h for h in range(m) if x[i][h] == 1]
            if len(picks) != 1:
                raise ValueError("job block does not select exactly one machine")
            h = picks[0]
            assignment.append(h)
            loads[h] = loads[h] + p_rows[i][h]
            if costs is not None:
                cost = cost + costs[i][h]
        makespan = max(loads, default=ZERO)
        return ScheduleDecode(tuple(assignment), tuple(loads), makespan, cost)

    return inst, decode


def gap_to_config(p, costs, cmax, budget=None):
    """Bi-criteria assignment: minimize total cost subject to near-feasible
    machine loads at cmax; the optional budget is reported by the decoder."""
    inst, decode_sched = scheduling_to_config(p, cmax, costs=costs)

    def decode(x):
        d = decode_sched(x)
        if budget is None:
            return d, None
        return d, d.cost <= as_rat(budget)

    return inst, decode
