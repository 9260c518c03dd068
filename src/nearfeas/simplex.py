"""Exact bounded-variable primal simplex returning optimal vertex solutions.

Two-phase method with signed artificial variables and Bland's rule (smallest
eligible index enters; ratio ties break to the smallest basic variable
index), so every run is deterministic and terminates despite degeneracy.
All arithmetic is exact; optimality and feasibility are decided with zero
tolerance.
"""

import enum
from dataclasses import dataclass

from .backend import pivot_update
from .errors import PipelineInvariantError
from .rationals import ONE, ZERO, as_rat, is_integral
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


class _Tableau:
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

        # residuals of the initial all-at-lower point become artificial values
        resid = []
        for i in range(r):
            row = lp.matrix.row(i)
            s = lp.rhs[i]
            for j in range(c):
                lj = lp.lower[j]
                if lj and row[j]:
                    s = s - row[j] * lj
            resid.append(s)

        sign = []
        for i, s in enumerate(resid):
            self.val[c + i] = s
            if s >= 0:
                self.lower.append(ZERO)
                self.upper.append(s)
                sign.append(ONE if s > 0 else ZERO)
            else:
                self.lower.append(s)
                self.upper.append(ZERO)
                sign.append(-ONE)

        # rows: [A | I | B^-1 b], plus one reduced-cost row at index r
        self.T = []
        for i in range(r):
            row = list(lp.matrix.row(i))
            row.extend(ONE if k == i else ZERO for k in range(r))
            row.append(lp.rhs[i])
            self.T.append(row)
        cost = []
        for j in range(c):
            col = lp.matrix.column(j)
            acc = ZERO
            for i in range(r):
                if sign[i] and col[i]:
                    acc = acc - sign[i] * col[i]
            cost.append(acc)
        cost.extend(ZERO for _ in range(r + 1))
        self.T.append(cost)
        self.phase_cost = [ZERO] * c + sign

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
        for _ in range(_MAX_ITERATIONS):
            entering = -1
            for j in range(self.n):
                sj = stat[j]
                if sj == _BASIC or lower[j] == upper[j]:
                    continue
                rc = cost_row[j]
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
                da = a if up else -a
                bi = basis[i]
                if da > 0:
                    cap = (val[bi] - lower[bi]) / da
                    hb = _LOW
                else:
                    cap = (upper[bi] - val[bi]) / (-da)
                    hb = _UP
                if t_row is None or cap < t_row or (cap == t_row and bi < basis[leave]):
                    t_row, leave, leave_stat = cap, i, hb
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
                pivot_update(T, leave, entering)
                self.pivots += 1
        raise PipelineInvariantError("simplex iteration cap hit; anti-cycling rule broken")

    def _move(self, entering, up, t):
        if not t:
            return
        T, val, basis = self.T, self.val, self.basis
        for i in range(self.r):
            a = T[i][entering]
            if a:
                step = a * t
                bi = basis[i]
                val[bi] = val[bi] - step if up else val[bi] + step
        val[entering] = val[entering] + t if up else val[entering] - t

    def rebuild_cost_row(self, objective):
        cost = list(objective) + [ZERO] * (self.r + 1)
        T = self.T
        for i in range(self.r):
            cb = objective[self.basis[i]] if self.basis[i] < self.c else ZERO
            if cb:
                row = T[i]
                for j in range(self.n):
                    if row[j]:
                        cost[j] = cost[j] - cb * row[j]
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
