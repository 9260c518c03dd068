"""Exact bounded-variable simplex returning optimal vertex solutions.

A cold solve is the two-phase primal method with signed artificial variables
and Bland's rule (smallest eligible index enters; ratio ties break to the
smallest basic variable index), so every run is deterministic and terminates
despite degeneracy.  All arithmetic is exact; optimality and feasibility are
decided with zero tolerance.

The tableau holds no rationals.  Each constraint row is scaled once to
integers and the tableau is kept as Python ints over one common denominator,
the determinant of the current basis, by integer-preserving Gauss-Jordan
pivots (J. Edmonds, "Systems of distinct representatives and linear
algebra", J. Res. NBS 71B, 1967): every division in a pivot is exact by
Cramer's rule.  Rationals appear only in the ratio test and in the variable
values, which are tracked apart from the tableau; the tableau keeps no
right-hand-side column.  Each decision compares the same exact quantities a
rational tableau would, so the pivot path is the same.

A ``Tableau`` left optimal can be re-optimized after one basic variable's
bounds are tightened, by the bounded-variable dual simplex (A. Koberstein,
"The dual simplex method: techniques for a fast and stable implementation",
PhD thesis, Paderborn, 2005).  Edmonds' entries are minors of the row-scaled
matrix fixed by the basis alone, so the old tableau is exact for the new
bounds; the basis stays dual feasible and only the tightened variable is out
of bounds, which is where the dual method starts.  The leaving row is the
bound-violating basic variable of smallest index and ties in the dual ratio
test break to the smallest index (Bland's rule read on the dual), so the
re-optimization is deterministic and terminates.  A row with no entering
column is a Farkas certificate of infeasibility and is checked exactly
against the original matrix.  Branch-and-bound re-optimizes every child node
this way from its parent's tableau.
"""

import copy
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


def _scaled_rows(lp):
    """Each constraint row scaled to integers by the lcm s of its
    denominators: (the nonzeros of s * A_i as (column, int), s * b_i, s)."""
    rows = []
    for i in range(lp.matrix.rows):
        nz = [(j, v) for j, v in enumerate(lp.matrix.row(i)) if v]
        s = _scale(v for _, v in nz)
        rows.append(([(j, v.numerator * (s // v.denominator)) for j, v in nz], lp.rhs[i] * s, s))
    return rows


class Tableau:
    """Bounded-variable tableau held as Python ints over one common denominator.

    Row i is ``d * (B^-1 [A | I])_i`` and row r is ``d * k * (reduced costs)``
    with ``k > 0``, where B is the current basis and ``d`` the determinant of
    the matching columns of the row-scaled matrix ``D [A | I]`` (``D`` holds
    each row's denominator lcm).  Pivots keep every entry integral
    (``backend.pivot_update``); ``d`` may turn negative, so signs of entries
    are read relative to the sign of ``d``.

    ``solve`` runs the cold two-phase method; once it is optimal,
    ``reoptimize`` tightens one basic variable's bounds and restores
    optimality by the dual simplex, and ``copy`` snapshots the state for a
    later re-optimization under other bounds.  ``pivots`` counts the pivots
    of the last solve or re-optimization.
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

        # the rows scaled to integers, read once and shared by every copy:
        # they also check vertices and infeasibility certificates
        rows = self.rows = _scaled_rows(lp)

        # residuals of the initial all-at-lower point become artificial values
        sign = []
        for i, (nz, sb, s) in enumerate(rows):
            acc = sb
            for j, a in nz:
                lj = lp.lower[j]
                if lj:
                    acc = acc - a * lj
            res = acc / s
            self.val[c + i] = res
            if res >= 0:
                self.lower.append(ZERO)
                self.upper.append(res)
                sign.append(1 if res > 0 else 0)
            else:
                self.lower.append(res)
                self.upper.append(ZERO)
                sign.append(-1)

        # rows: d * [A | I] for the all-artificial basis, whose determinant in
        # the row-scaled matrix is the product d of the row scales; the cost
        # row holds the phase-1 reduced costs (k = 1), minus the signed sum of
        # the rows
        d = math.prod(s for _, _, s in rows)
        self.d = self.d0 = d
        self.T = []
        cost = [0] * self.n
        for i, (nz, _, s) in enumerate(rows):
            f = d // s
            t = [0] * self.n
            for j, a in nz:
                t[j] = a * f
            t[c + i] = d
            self.T.append(t)
            si = sign[i]
            if si:
                for j, _ in nz:
                    cost[j] -= si * t[j]
        self.T.append(cost)
        self.phase_cost = [0] * c + sign

    def copy(self):
        """An independent snapshot: rows, basis, bounds and values."""
        new = copy.copy(self)
        new.T = [row[:] for row in self.T]
        new.lower = self.lower[:]
        new.upper = self.upper[:]
        new.stat = self.stat[:]
        new.val = self.val[:]
        new.basis = self.basis[:]
        return new

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
        """Cold two-phase solve from the all-artificial basis."""
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

    def reoptimize(self, j, lo, hi):
        """Give basic variable j the bounds [lo, hi] and restore optimality by
        the bounded dual simplex; OPTIMAL or INFEASIBLE.

        The tableau must be optimal.  Its basis stays dual feasible under the
        new bounds, and no value moves until the first dual pivot.
        """
        if self.stat[j] != _BASIC:
            raise PipelineInvariantError("bound change on a nonbasic variable")
        self.lower[j] = lo
        self.upper[j] = hi
        T, val, lower, upper, stat, basis = (
            self.T,
            self.val,
            self.lower,
            self.upper,
            self.stat,
            self.basis,
        )
        r = self.r
        cost_row = T[r]
        d = self.d
        self.pivots = 0
        for _ in range(_MAX_ITERATIONS):
            # the leaving row: the out-of-bounds basic variable of least index
            leave = -1
            for i in range(r):
                bi = basis[i]
                if not lower[bi] <= val[bi] <= upper[bi] and (leave < 0 or bi < lv):
                    leave, lv = i, bi
            if leave < 0:
                return LPStatus.OPTIMAL

            # lv moves to the bound it violates; an entering column must move
            # it that way, and the least |reduced cost| / |entry| keeps every
            # reduced cost's sign (compared as cross products, ties to the
            # smallest index)
            to_low = val[lv] < lower[lv]
            row = T[leave]
            pos = d > 0
            q = -1
            qc = qa = 0
            # a column at its lower bound may only rise and one at its upper
            # bound only fall, moving lv by -(entry) per unit: it enters only
            # if that moves lv toward the bound lv violates.  Artificials are
            # fixed at 0 after phase 1 and never enter, nor does any other
            # fixed column.
            for k in range(self.c):
                a = row[k]
                if not a:
                    continue
                sk = stat[k]
                if sk == _BASIC or (sk == _LOW) != (((a > 0) == pos) != to_low):
                    continue
                ck = abs(cost_row[k])
                a = abs(a)
                if (q < 0 or ck * qa < qc * a) and lower[k] != upper[k]:
                    q, qc, qa = k, ck, a
            if q < 0:
                self._certify_infeasible(leave)
                return LPStatus.INFEASIBLE

            bound = lower[lv] if to_low else upper[lv]
            # x_q moves by d * step, each basic variable by -(its entry) * step
            step = (val[lv] - bound) / row[q]
            for i in range(r):
                a = T[i][q]
                if a:
                    bi = basis[i]
                    val[bi] = val[bi] - a * step
            val[q] = val[q] + step * d
            stat[lv] = _LOW if to_low else _UP
            stat[q] = _BASIC
            basis[leave] = q
            d = self.d = pivot_update(T, leave, q, d)
            self.pivots += 1
        raise PipelineInvariantError("dual simplex iteration cap hit; anti-cycling rule broken")

    def _certify_infeasible(self, p):
        """Check that row p proves the current bounds infeasible.

        The row's artificial part y satisfies ``y . (A x) = y . b`` for every
        solution x of the equations; the certificate holds when ``y . b`` lies
        outside the range of ``y . A x`` over the bounds.  Both sides are
        recomputed from the original rows, scaled by ``d0 > 0``, not read
        from the tableau.
        """
        c = self.c
        d0 = self.d0
        g = [0] * c
        rhs = ZERO
        for yi, (nz, sb, s) in zip(self.T[p][c:], self.rows):
            if yi:
                f = yi * (d0 // s)
                if sb:
                    rhs = rhs + f * sb
                for j, a in nz:
                    g[j] += f * a
        least = most = ZERO
        for j, gj in enumerate(g):
            if gj:
                at_lo, at_hi = gj * self.lower[j], gj * self.upper[j]
                if gj < 0:
                    at_lo, at_hi = at_hi, at_lo
                least = least + at_lo
                most = most + at_hi
        if least <= rhs <= most:
            raise PipelineInvariantError("dual simplex infeasibility certificate does not hold")

    def vertex(self):
        """The optimal vertex of the current basis, checked against the
        equations and the current bounds."""
        c = self.c
        values = tuple(self.val[:c])
        _verify_vertex(self.rows, self.lower, self.upper, values)
        obj = ZERO
        for v, w in zip(values, self.lp.objective):
            if v and w:
                obj = obj + w * v
        basis = tuple(sorted(b for b in self.basis if b < c))
        return VertexSolution(LPStatus.OPTIMAL, values, basis, obj, self.pivots)


def solve_lp_vertex(lp):
    """Solve to an optimal vertex (basic) solution, exactly.

    On OPTIMAL the returned values satisfy the equations and bounds exactly,
    non-basic variables sit at a bound, and the columns of variables strictly
    between their bounds are linearly independent.
    """
    tab = Tableau(lp)
    status = tab.solve()
    if status != LPStatus.OPTIMAL:
        return VertexSolution(status, None, (), None, tab.pivots)
    return tab.vertex()


def _verify_vertex(rows, lower, upper, values):
    """Raise unless values meet the bounds and the equations exactly.

    ``rows`` are ``_scaled_rows``; each equation is checked over its row's
    nonzeros as a sum of integers, the values scaled by the lcm L of their
    denominators, against ``L * s * b_i``.
    """
    for v, lo, hi in zip(values, lower, upper):
        if not lo <= v <= hi:
            raise PipelineInvariantError("vertex violates bounds")
    L = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (L // v.denominator) for v in values]
    for nz, sb, _ in rows:
        acc = 0
        for j, a in nz:
            acc += a * scaled[j]
        if acc != sb * L:
            raise PipelineInvariantError("vertex violates equations")


def nonintegral_support(values):
    """Indices of the entries of ``values`` that are not integers."""
    return frozenset(j for j, v in enumerate(values) if not is_integral(v))


def strictly_between_columns(lp, values, cols):
    """Submatrix, over all rows, of the columns among ``cols`` whose value is
    strictly inside its bounds."""
    between = [j for j in cols if lp.lower[j] < values[j] < lp.upper[j]]
    entries = []
    for i in range(lp.matrix.rows):
        row = lp.matrix.row(i)
        entries.extend(row[j] for j in between)
    return Matrix(lp.matrix.rows, len(between), entries)
