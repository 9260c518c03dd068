"""Brute-force exact solvers: the ground truth for every pipeline guarantee.

All three oracles are one product search, ``_matches``: each position (a
variable, or a block) picks one entry from a list of (contribution vector,
cost, witness), and a combination counts when its contributions sum exactly
to a target.  The n-fold oracle first lists each block's solutions of
A^i x = b^i with it, then searches their product.  Target rows and costs are
scaled to integers once (by the lcm of their denominators).  Enumeration is
lexicographic and exhaustive within the validated instance's bound box; the
first combination of strictly smallest cost is the witness, and a box larger
than the cap fails loudly before any search.  No code is shared with solvers
beyond the exact scalars and integer scaling of ``rationals``.
"""

import math
from dataclasses import dataclass
from operator import itemgetter, sub

from .errors import EnumerationCapExceeded, InvalidInstanceError
from .instances import GeneralIP, NFoldConfigInstance, NFoldNonnegInstance
from .instances import validate_config, validate_general, validate_nonneg
from .rationals import ZERO, Rat, common_denominator, scaled

DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    optimum: object  # Rat or None
    witness: object  # solution structure or None


_INFEASIBLE = OracleResult(False, None, None)


def _validate(problems, points, cap, kind):
    """Reject an invalid instance or cap, then a bound box larger than the cap."""
    if cap < 1:
        problems = [*problems, "cap must be positive"]
    if problems:
        raise InvalidInstanceError(problems)
    if points > cap:
        raise EnumerationCapExceeded(f"{kind} oracle: {points} points exceeds cap {cap}")


def _matches(choices, target):
    """Yield (cost, witnesses) for every pick of one entry per position whose
    contributions sum to target, in lexicographic order of the picks;
    ``choices[i]`` lists position i's (contribution vector, cost, witness)."""
    entries = [e for position in choices for e in position]
    rows = [common_denominator([t, *(e[0][r] for e in entries)]) for r, t in enumerate(target)]
    unit = common_denominator(e[1] for e in entries)
    choices = [[(tuple(map(scaled, vec, rows)), scaled(c, unit), w) for vec, c, w in position]
               for position in choices]
    last = len(choices) - 1
    picks = [None] * len(choices)

    def search(i, rest, cost):
        # rest is target minus the contributions picked so far
        if i == last:
            for vec, c, w in choices[i]:
                if vec == rest:
                    picks[i] = w
                    yield Rat(cost + c, unit), tuple(picks)
            return
        for vec, c, w in choices[i]:
            picks[i] = w
            yield from search(i + 1, tuple(map(sub, rest, vec)), cost + c)

    return search(0, tuple(map(scaled, target, rows)), 0)


def _best(choices, target):
    """The first combination of strictly smallest cost (``min`` keeps the first)."""
    best = min(_matches(choices, target), key=itemgetter(0), default=None)
    return _INFEASIBLE if best is None else OracleResult(True, *best)


def _variables(mat, w, lower, upper):
    """Position j: value v in [lower_j, upper_j] adds v * column j, costs v * w_j."""
    return [[(tuple(v * a for a in mat.column(j)), v * w[j], v)
             for v in range(lower[j], upper[j] + 1)] for j in range(mat.cols)]


def brute_force_general(inst, cap=DEFAULT_CAP):
    """Exact optimum of min w.x over H.x = b, l <= x <= u, x integer."""
    problems, _ = validate_general(inst)
    _validate(problems, math.prod(hi - lo + 1 for lo, hi in zip(inst.l, inst.u)), cap, "general")
    return _best(_variables(inst.H, inst.w, inst.l, inst.u), inst.b)


def brute_force_config(inst, cap=DEFAULT_CAP):
    """Exact optimum over all choice functions x^i in configs^i."""
    problems, _ = validate_config(inst)
    _validate(problems, math.prod(max(len(blk.configs), 1) for blk in inst.blocks), cap, "config")
    if not all(blk.configs for blk in inst.blocks):
        return _INFEASIBLE
    choices = [[(blk.D.matvec(cfg), sum(map(Rat.__mul__, blk.weights, cfg), ZERO), cfg)
                for cfg in blk.configs] for blk in inst.blocks]
    return _best(choices, inst.b0)


def brute_force_nfold(inst, cap=DEFAULT_CAP):
    """Exact optimum over the full integer box with all equalities exact; the
    cap applies to the full box, not to the per-block solution lists."""
    points = math.prod(hi + 1 for blk in inst.blocks for hi in blk.u)
    problems, _ = validate_nonneg(inst)
    _validate(problems, points, cap, "nfold")
    choices = []
    for blk in inst.blocks:
        local = _matches(_variables(blk.A, blk.w, [0] * len(blk.u), blk.u), blk.bi)
        choices.append([(blk.D.matvec(x), cost, x) for cost, x in local])
        if not choices[-1]:
            return _INFEASIBLE
    return _best(choices, inst.b0)


def brute_force(inst, cap=DEFAULT_CAP):
    if isinstance(inst, GeneralIP):
        return brute_force_general(inst, cap)
    if isinstance(inst, NFoldConfigInstance):
        return brute_force_config(inst, cap)
    if isinstance(inst, NFoldNonnegInstance):
        return brute_force_nfold(inst, cap)
    raise TypeError(f"unsupported instance type {type(inst)!r}")
