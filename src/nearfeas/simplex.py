"""Exact bounded-variable primal simplex returning optimal vertex solutions.

Two-phase method with signed artificial variables and Bland's rule (smallest
eligible index enters; ratio ties break to the smallest basic variable
index), so every run is deterministic and terminates despite degeneracy.
All arithmetic is exact; optimality and feasibility are decided with zero
tolerance.

The tableau holds no rationals.  Each constraint row is scaled once to
integers and the tableau is kept as Python ints over one common denominator,
the determinant of the current basis, by integer-preserving Gauss-Jordan
pivots (J. Edmonds, "Systems of distinct representatives and linear
algebra", J. Res. NBS 71B, 1967): every division in a pivot is exact by
Cramer's rule.  Rationals appear only in the ratio test and in the variable
values, which are tracked apart from the tableau; the tableau keeps no
right-hand-side column.  Each decision compares the same exact quantities a
rational tableau would, so the pivot path is the same.
"""

import enum
import math
from dataclasses import dataclass

from .backend import pivot_update
from .errors import PipelineInvariantError
from .rationals import ZERO, as_rat, is_integral
from .linalg import Matrix


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  matrix . x = rhs, lower <= x <= upper."""

    matrix: Matrix
    rhs: tuple
    lower: tuple
    upper: tuple
    objective: tuple

    def __post_init__(self):
        r, c = self.matrix.rows, self.matrix.cols
        object.__setattr__(self, "rhs", tuple(as_rat(v) for v in self.rhs))
        object.__setattr__(self, "lower", tuple(as_rat(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(as_rat(v) for v in self.upper))
        object.__setattr__(self, "objective", tuple(as_rat(v) for v in self.objective))
        if len(self.rhs) != r:
            raise ValueError("dimension mismatch: rhs")
        if len(self.lower) != c or len(self.upper) != c or len(self.objective) != c:
            raise ValueError("dimension mismatch: bounds/objective")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("bounds crossed")


@dataclass(frozen=True)
class VertexSolution:
    status: LPStatus
    values: tuple | None
    basis: tuple
    objective_value: object
    pivots: int


_BASIC, _LOW, _UP = 0, 1, 2

# Bland's rule precludes cycling; the cap only turns an unforeseen bug into
# a loud failure instead of a hang.
_MAX_ITERATIONS = 1 << 22


def _scale(values):
    """Positive integer L (the lcm of the denominators) with L * v integral."""
    return math.lcm(*(v.denominator for v in values))


class _Tableau:
    """Bounded-variable tableau held as Python ints over one common denominator.

    Row i is ``d * (B^-1 [A | I])_i`` and row r is ``d * k * (reduced costs)``
    with ``k > 0``, where B is the current basis and ``d`` the determinant of
    the matching columns of the row-scaled matrix ``D [A | I]`` (``D`` holds
    each row's denominator lcm).  Pivots keep every entry integral
    (``backend.pivot_update``); ``d`` may turn negative, so signs of entries
    are read relative to the sign of ``d``.
    """

    def __init__(self, lp):
        self.lp = lp
        r, c = lp.matrix.rows, lp.matrix.cols
        self.r = r
        self.c = c
        self.n = c + r  # structural + artificial
        self.lower = list(lp.lower)
        self.upper = list(lp.upper)
        self.stat = [_LOW] * c + [_BASIC] * r
        self.val = list(lp.lower) + [ZERO] * r
        self.basis = list(range(c, c + r))
        self.pivots = 0

        # the nonzeros of each row, (column, value), read once
        nonzeros = [[(j, v) for j, v in enumerate(lp.matrix.row(i)) if v] for i in range(r)]

        # residuals of the initial all-at-lower point become artificial values
        resid = []
        for i, nz in enumerate(nonzeros):
            s = lp.rhs[i]
            for j, v in nz:
                lj = lp.lower[j]
                if lj:
                    s = s - v * lj
            resid.append(s)

        sign = []
        for i, s in enumerate(resid):
            self.val[c + i] = s
            if s >= 0:
                self.lower.append(ZERO)
                self.upper.append(s)
                sign.append(1 if s > 0 else 0)
            else:
                self.lower.append(s)
                self.upper.append(ZERO)
                sign.append(-1)

        # rows: d * [A | I] for the all-artificial basis, whose determinant in
        # the row-scaled matrix is the product d of the row scales; the cost
        # row holds the phase-1 reduced costs (k = 1), minus the signed sum of
        # the rows
        d = math.prod(_scale(v for _, v in nz) for nz in nonzeros)
        self.d = d
        self.T = []
        cost = [0] * self.n
        for i, nz in enumerate(nonzeros):
            t = [0] * self.n
            for j, v in nz:
                t[j] = v.numerator * (d // v.denominator)
            t[c + i] = d
            self.T.append(t)
            si = sign[i]
            if si:
                for j, _ in nz:
                    cost[j] -= si * t[j]
        self.T.append(cost)
        self.phase_cost = [0] * c + sign

    def _iterate(self):
        T, val, lower, upper, stat, basis = (
            self.T,
            self.val,
            self.lower,
            self.upper,
            self.stat,
            self.basis,
        )
        cost_row = T[self.r]
        d = self.d
        fixed = [lo == hi for lo, hi in zip(lower, upper)]
        for _ in range(_MAX_ITERATIONS):
            pos = d > 0
            entering = -1
            for j in range(self.n):
                rc = cost_row[j]
                if not rc:
                    continue
                sj = stat[j]
                if sj == _BASIC or fixed[j]:
                    continue
                if not pos:
                    rc = -rc
                if (sj == _LOW and rc < 0) or (sj == _UP and rc > 0):
                    entering = j
                    break
            if entering < 0:
                return LPStatus.OPTIMAL

            up = stat[entering] == _LOW  # moving up from lower, else down from upper
            t_row = None
            leave = -1
            leave_stat = _LOW
            for i in range(self.r):
                a = T[i][entering]
                if not a:
                    continue
                bi = basis[i]
                # the step is |d| * gap / |a|, the gap being to the bound the
                # move drives the basic variable toward; |d| is common to all
                # rows, so the caps compared here leave it out
                if ((a > 0) == pos) == up:
                    cap = (val[bi] - lower[bi]) / abs(a)
                    hb = _LOW
                else:
                    cap = (upper[bi] - val[bi]) / abs(a)
                    hb = _UP
                if t_row is None or cap < t_row or (cap == t_row and bi < basis[leave]):
                    t_row, leave, leave_stat = cap, i, hb
            if t_row is not None:
                t_row = t_row * abs(d)
            t_own = upper[entering] - lower[entering]

            if t_row is None or t_own <= t_row:
                t = t_own
                self._move(entering, up, t)
                stat[entering] = _UP if up else _LOW
                val[entering] = upper[entering] if up else lower[entering]
            else:
                t = t_row
                if t < 0:
                    raise PipelineInvariantError("negative ratio-test step")
                self._move(entering, up, t)
                lv = basis[leave]
                stat[lv] = leave_stat
                val[lv] = lower[lv] if leave_stat == _LOW else upper[lv]
                stat[entering] = _BASIC
                basis[leave] = entering
                d = self.d = pivot_update(T, leave, entering, d)
                self.pivots += 1
        raise PipelineInvariantError("simplex iteration cap hit; anti-cycling rule broken")

    def _move(self, entering, up, t):
        if not t:
            return
        T, val, basis = self.T, self.val, self.basis
        t_d = t / self.d  # entries are d times the tableau's
        for i in range(self.r):
            a = T[i][entering]
            if a:
                step = a * t_d
                bi = basis[i]
                val[bi] = val[bi] - step if up else val[bi] + step
        val[entering] = val[entering] + t if up else val[entering] - t

    def rebuild_cost_row(self, objective):
        k = _scale(objective)
        obj = [v.numerator * (k // v.denominator) for v in objective]
        d = self.d
        cost = [v * d for v in obj] + [0] * self.r
        T = self.T
        for i in range(self.r):
            cb = obj[self.basis[i]] if self.basis[i] < self.c else 0
            if cb:
                row = T[i]
                for j in range(self.n):
                    if row[j]:
                        cost[j] -= cb * row[j]
        T[self.r] = cost

    def solve(self):
        status = self._iterate()
        infeas = ZERO
        for j in range(self.c, self.n):
            if self.phase_cost[j]:
                infeas = infeas + self.phase_cost[j] * self.val[j]
        if infeas != 0:
            return LPStatus.INFEASIBLE
        for j in range(self.c, self.n):
            self.lower[j] = ZERO
            self.upper[j] = ZERO
            self.val[j] = ZERO
        self.rebuild_cost_row(tuple(self.lp.objective))
        return self._iterate()


def solve_lp_vertex(lp):
    """Solve to an optimal vertex (basic) solution, exactly.

    On OPTIMAL the returned values satisfy the equations and bounds exactly,
    non-basic variables sit at a bound, and the columns of variables strictly
    between their bounds are linearly independent.
    """
    tab = _Tableau(lp)
    status = tab.solve()
    if status != LPStatus.OPTIMAL:
        return VertexSolution(status, None, (), None, tab.pivots)

    values = tuple(tab.val[: lp.matrix.cols])
    _verify_vertex(lp, values)
    obj = ZERO
    for j, v in enumerate(values):
        if v and lp.objective[j]:
            obj = obj + lp.objective[j] * v
    basis = tuple(sorted(b for b in tab.basis if b < lp.matrix.cols))
    return VertexSolution(LPStatus.OPTIMAL, values, basis, obj, tab.pivots)


def _verify_vertex(lp, values):
    for j, v in enumerate(values):
        if not (lp.lower[j] <= v <= lp.upper[j]):
            raise PipelineInvariantError("vertex violates bounds")
    for i in range(lp.matrix.rows):
        row = lp.matrix.row(i)
        acc = ZERO
        for j, v in enumerate(values):
            if v and row[j]:
                acc = acc + row[j] * v
        if acc != lp.rhs[i]:
            raise PipelineInvariantError("vertex violates equations")


def nonintegral_support(sol):
    """Indices of variables taking non-integer values in an optimal solution."""
    if sol.status != LPStatus.OPTIMAL:
        raise ValueError("nonintegral_support requires an optimal solution")
    return frozenset(j for j, v in enumerate(sol.values) if not is_integral(v))


def strictly_between_columns(lp, sol):
    """Submatrix of columns whose value is strictly inside its bounds."""
    cols = [
        j
        for j, v in enumerate(sol.values)
        if lp.lower[j] < v < lp.upper[j]
    ]
    entries = []
    for i in range(lp.matrix.rows):
        row = lp.matrix.row(i)
        entries.extend(row[j] for j in cols)
    return Matrix(lp.matrix.rows, len(cols), entries)
