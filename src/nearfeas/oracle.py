"""Brute-force exact solvers: the ground truth for every pipeline guarantee.

All three oracles are one integer search, ``_best``: each position (a
variable, or a block) picks one entry of (int vector, int cost, witness), a
pick counts when its vectors sum to the target, and the answer is the first
pick of least cost in lexicographic order of the entry indices, as a product
search over the bound box finds it.  Each row is scaled to ints with its
target entry by their least common denominator (a coupling row by one across
all blocks), costs by the weights' lcm; only the optimum becomes a ``Rat``.
The search meets in the middle: the front half maps each prefix sum to its
least (cost, index tuple), the back half each suffix sum (picks prepended),
both dropping sums the other positions cannot complete per row, and sums
meeting the target join.  Picks with equal partial sums share completions,
so a costlier or an equally cheap later one never wins; so the n-fold oracle
keeps, per D^i x among a block's solutions of A^i x = b^i, only the least
(cost, x).  A box over the cap fails before any search; only ``rationals``
and the matrices' one stored form, their integer rows, are shared with the
solvers.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, le, mul, sub

from .errors import EnumerationCapExceeded, InvalidInstanceError
from .instances import GeneralIP, NFoldConfigInstance, NFoldNonnegInstance
from .instances import validate_config, validate_general, validate_nonneg
from .rationals import Rat, integer_row

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


def _lifted_rows(mats, target):
    """Row r of every matrix, and target[r], as dense ints over their least
    common denominator, the lcm of the target's denominator and the row scales."""
    scales = [math.lcm(t.denominator, *(m.scales[r] for m in mats)) for r, t in enumerate(target)]
    rows = [[[row.get(j, 0) * (L // s) for j in range(m.cols)]
             for row, s, L in zip(map(dict, m.nonzeros), m.scales, scales)] for m in mats]
    return rows, tuple(t.numerator * (L // t.denominator) for t, L in zip(target, scales))


def _variables(rows, costs, lower, upper):
    """Position j: value v in [lower_j, upper_j] adds v * column j, costs v * costs_j."""
    return [[(tuple(v * a for a in col), v * c, v) for v in range(lo, hi + 1)]
            for col, c, lo, hi in zip(zip(*rows), costs, lower, upper)]


def _windows(positions, target):
    """For i = 0..n, the per-row (least, greatest) sum that positions[:i] can
    still complete to target, over the target's rows."""
    lo = hi = target
    out = [(lo, hi)]
    for position in positions:
        cols = [*zip(*(e[0] for e in position))]
        lo = tuple(map(sub, lo, map(max, cols)))
        hi = tuple(map(sub, hi, map(min, cols)))
        out.append((lo, hi))
    return out


def _table(positions, windows, rows, prepend):
    """Each sum of one entry per position, partial sums kept inside their
    windows, to its least (cost, index tuple); ``prepend`` puts indices first."""
    table = {(0,) * rows: (0, ())}
    for position, (lo, hi) in zip(positions, windows):
        entries = [(k, vec, cost) for k, (vec, cost, _) in enumerate(position)]
        nxt = {}
        get = nxt.get
        for s, (c, picks) in table.items():
            for k, vec, cost in entries:
                t = tuple(map(add, s, vec))
                if all(map(le, lo, t)) and all(map(le, t, hi)):
                    key = (c + cost, (k, *picks) if prepend else (*picks, k))
                    old = get(t)
                    if old is None or key < old:
                        nxt[t] = key
        table = nxt
    return table


def _best(positions, target, unit):
    """The first pick of least cost whose vectors sum to target; costs are over unit."""
    n, rows = len(positions), len(target)
    fronts = list(accumulate(map(len, positions), mul, initial=1))
    h = min(range(n + 1), key=lambda i: max(fronts[i], fronts[n] // fronts[i]))
    prefix, suffix = _windows(positions, target), _windows(positions[::-1], target)[::-1]
    front = _table(positions[:h], suffix[1 : h + 1], rows, False)
    back = _table(positions[h:][::-1], prefix[h:n][::-1], rows, True)
    joins = ((m[0] + c, m[1] + picks) for s, (c, picks) in back.items()
             if (m := front.get(tuple(map(sub, target, s)))) is not None)
    best = min(joins, default=None)
    if best is None:
        return _INFEASIBLE
    cost, picks = best
    return OracleResult(True, Rat(cost, unit), tuple(p[k][2] for p, k in zip(positions, picks)))


def brute_force_general(inst, cap=DEFAULT_CAP):
    """Exact optimum of min w.x over H.x = b, l <= x <= u, x integer."""
    problems, _ = validate_general(inst)
    _validate(problems, math.prod(hi - lo + 1 for lo, hi in zip(inst.l, inst.u)), cap, "general")
    (rows,), b = _lifted_rows([inst.H], inst.b)
    unit, w = integer_row(inst.w)
    return _best(_variables(rows, w, inst.l, inst.u), b, unit)


def brute_force_config(inst, cap=DEFAULT_CAP):
    """Exact optimum over all choice functions x^i in configs^i."""
    problems, _ = validate_config(inst)
    _validate(problems, math.prod(max(len(blk.configs), 1) for blk in inst.blocks), cap, "config")
    if not all(blk.configs for blk in inst.blocks):
        return _INFEASIBLE
    d_rows, b0 = _lifted_rows([blk.D for blk in inst.blocks], inst.b0)
    t = inst.blocks[0].D.cols
    unit, w = integer_row([v for blk in inst.blocks for v in blk.weights])
    positions = [[(tuple(sum(map(mul, row, cfg)) for row in D),
                   sum(map(mul, w[i * t : i * t + t], cfg)), cfg)
                  for cfg in blk.configs] for i, (blk, D) in enumerate(zip(inst.blocks, d_rows))]
    return _best(positions, b0, unit)


def brute_force_nfold(inst, cap=DEFAULT_CAP):
    """Exact optimum over the full integer box with all equalities exact; the
    cap applies to the full box, not to the per-block solution lists."""
    problems, _ = validate_nonneg(inst)
    _validate(problems, math.prod(hi + 1 for blk in inst.blocks for hi in blk.u), cap, "nfold")
    d_rows, b0 = _lifted_rows([blk.D for blk in inst.blocks], inst.b0)
    t = inst.blocks[0].D.cols
    unit, w = integer_row([v for blk in inst.blocks for v in blk.w])
    positions = []
    for i, (blk, D) in enumerate(zip(inst.blocks, d_rows)):
        (a_rows,), bi = _lifted_rows([blk.A], blk.bi)
        local = _variables(a_rows + D, w[i * t : i * t + t], [0] * t, blk.u)
        # every solution of A^i x = b^i (the windows cover the A rows), with
        # the least (cost, x) for each D^i x; a value is its own index
        found = _table(local, _windows(local[::-1], bi)[::-1][1:], len(a_rows) + len(D), False)
        if not found:
            return _INFEASIBLE
        found = sorted(found.items(), key=lambda item: item[1][1])
        positions.append([(s[len(bi) :], c, x) for s, (c, x) in found])
    return _best(positions, b0, unit)


def brute_force(inst, cap=DEFAULT_CAP):
    if isinstance(inst, GeneralIP):
        return brute_force_general(inst, cap)
    if isinstance(inst, NFoldConfigInstance):
        return brute_force_config(inst, cap)
    if isinstance(inst, NFoldNonnegInstance):
        return brute_force_nfold(inst, cap)
    raise TypeError(f"unsupported instance type {type(inst)!r}")
