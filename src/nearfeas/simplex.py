"""Exact bounded-variable simplex returning optimal vertex solutions.

A cold solve is the two-phase primal method with signed artificial variables
and Bland's rule (smallest eligible index enters; ratio ties break to the
smallest basic variable index), so every run is deterministic and terminates
despite degeneracy; phase 1 starts from a primal-feasible crash basis (R. E.
Bixby, "Implementing the simplex method: the initial basis", ORSA J. Comput.
4(3), 1992).  The phase-2 cost row is built with the tableau, where its
reduced costs are the objective itself, and the crash and phase-1 pivots
carry it to phase 2.  An infeasible phase 1 is certified: its multipliers
are checked as a Farkas certificate against the LP's own rows.  All
arithmetic is exact; optimality and feasibility are decided with zero
tolerance.

The LP's state holds no rationals.  Each constraint row A_i arrives as
integers N_i over its least scale s_i (a ``linalg.Matrix``, built so by the
model), and the tableau starts as those rows as stored: [N | I], the
all-artificial basis of N x + a = S b (S = diag(s)), of determinant 1.
Integer-preserving Gauss-Jordan pivots (J. Edmonds, "Systems of distinct
representatives and linear algebra", J. Res. NBS 71B, 1967) keep it as
Python ints: every division in a pivot is exact by Cramer's rule, entry by
entry, so a column can be cut from every row without touching the rest.
Edmonds holds every row over one common denominator, the determinant d of
the current basis; here each row i has its own denominator dens[i], the
determinant of the basis at the last pivot that rewrote row i in full.  A
pivot leaves the rows with a zero in its column as they are, and a row whose
entry in that column is a multiple of the least denominator of the pivot
row's values keeps its denominator and changes only where the pivot row is
nonzero; only the other rows are rewritten over the new d.  One positive
integer scale L per LP, the lcm of the denominators of the bounds and of b,
makes every bound and every right-hand side integral, so the bounds are held
as ints over L and the basic values as an integer value column, over
dens[i] * L in row i, that the pivots carry with the tableau (an integer
right-hand side, as in the revised simplex of R. Azulay & J.-F. Pique, "A
revised simplex method with integer Q-matrices", ACM TOMS 27(3), 2001).
Every decision is an integer cross product within one row, or between two
rows each read against the sign of its own denominator, and compares the
same exact quantities a rational tableau would, so the pivot path is the
same.  Rationals appear only in the LP's input and in ``vertex()``'s output.
Once phase 1 ends feasible, the artificials outside its final basis J0 are
fixed at 0 and never enter again, so their columns are cut from every row;
the rows keep the columns of the artificials still basic, and the phase-1
artificial block, B0^-1 for the basis B0 of the columns J0, is kept once
and shared by every copy of the tableau.

A ``Tableau`` left optimal can be re-optimized after one basic variable's
bounds are tightened to ints (a branching bound), by the bounded-variable
dual simplex (A. Koberstein, "The dual simplex method: techniques for a fast
and stable implementation", PhD thesis, Paderborn, 2005).  Edmonds' entries
are minors of [N | I] fixed by the basis alone, so the old
tableau is exact for the new bounds; the basis stays dual feasible and only
the tightened variable is out of bounds, which is where the dual method
starts.  The leaving row is the bound-violating basic variable of smallest
index and ties in the dual ratio test break to the smallest index (Bland's
rule read on the dual), so the re-optimization is deterministic and
terminates.  A row with no entering column is a Farkas certificate of
infeasibility and is checked exactly against the LP's own rows: its
multipliers are the row on J0 times B0^-1, the unique y for which y [N | I]
is the row on J0, and so the row's own basis-inverse part (D. Applegate,
W. Cook, S. Dash & D. Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Letters 35(6), 2007).  Given a cutoff, the
re-optimization stops once its objective, a lower bound while the basis is
dual feasible, reaches it.  The ratio test fixes the objective
after its pivot exactly (the entering column's |reduced cost / pivot entry|
times the leaving variable's distance to its bound), so a pivot that would
reach the cutoff is declined, not made.  Branch-and-bound re-optimizes every
child node this way from its parent's tableau, with the incumbent's
objective as the cutoff.
"""

import collections
import enum
import math
from dataclasses import dataclass

from .backend import pivot_update
from .errors import PipelineInvariantError
from .linalg import Matrix
from .rationals import Rat, integer_row


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF = "cutoff"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  A x = rhs, lower <= x <= upper.

    ``matrix`` holds A as integer rows, row i being ``matrix.nonzeros[i] /
    matrix.scales[i]`` with the least such scale (``linalg.Matrix``); the
    right-hand side, bounds and objective are exact rationals or ints.
    """

    matrix: Matrix
    rhs: tuple
    lower: tuple
    upper: tuple
    objective: tuple

    def __post_init__(self):
        r, c = self.matrix.rows, self.matrix.cols
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


class Tableau:
    """Bounded-variable tableau held as Python ints, each row over its own
    denominator.

    It solves ``N x + a = S b``: ``N`` the LP's integer rows (``nonzeros``),
    ``S`` the diagonal of their ``scales``, ``a`` the artificials.  ``d`` is
    the determinant of the current basis B, columns of ``[N | I]``; both it
    and every ``dens[i]`` start at 1, in the all-artificial basis.  Row i is
    ``dens[i] * (B^-1 [N | I])_i``, followed by the value column at index
    ``n`` (``c + r`` through phase 1), and row r is ``dens[r] * k * (reduced
    costs)`` of the objective ``obj / k`` (k > 0; in phase 1, of the phase-1
    objective with k = 1, while row r + 1 carries the objective's), where
    ``dens[i]`` is the determinant of the basis at the last pivot that
    rewrote row i in full (so ``T[i] * d / dens[i]`` is Edmonds' integral
    row over ``d``).  Pivots keep every entry integral
    (``backend.pivot_update``).  A pivot's determinant is its pivot entry,
    which may be negative, so ``d`` and any ``dens[i]`` may turn negative,
    and signs of entries in row i are read relative to the sign of
    ``dens[i]``.

    The bounds ``lower`` and ``upper`` are ints over the scale ``L``, fixed
    when the tableau is built and shared by all its copies, and ``rhs`` is
    ``L * S b``.  Each row
    ends in a value column: ``dens[i] * L`` times the row's basic value, and
    ``-dens[r] * k * L`` times the objective in row r.  The column is the
    tableau of ``L (S b - N x_N)``, so a pivot carries it like any other
    column, and a nonbasic variable that moves adds its own column times its
    step to it.  A nonbasic variable sits at the bound its status names.

    After a feasible phase 1 the rows are ``[structural | value | columns of
    the artificials basic at its end]`` and ``n`` is ``c``, the value
    column's index; column ids in ``basis``, ``stat``, ``lower`` and
    ``upper`` stay those of ``[N | I]``.  ``phase1`` keeps, for ``_farkas``,
    the phase-1 artificial block, its rows' denominators, its ``d`` and the
    positions of its basis columns in the cut rows; copies share it.

    ``solve`` runs the crash start and the cold two-phase method, and
    certifies an infeasible phase 1; once it is optimal, ``reoptimize`` sets
    int bounds on one basic variable and restores optimality by the dual
    simplex, and ``copy`` snapshots the state for a later re-optimization
    under other bounds.  ``pivots`` counts the pivots of the last solve or
    re-optimization.  Rationals appear only in the LP given to the
    constructor and in what ``vertex`` returns.
    """

    def __init__(self, lp):
        r, c = lp.matrix.rows, lp.matrix.cols
        self.r = r
        self.c = c
        self.n = n = c + r  # structural + artificial
        self.stat = [_LOW] * c + [_BASIC] * r
        self.basis = list(range(c, c + r))
        self.pivots = 0

        # the integer rows N_i and the right-hand sides L * s_i * b_i, shared
        # by every copy: they also check vertices and certificates
        nonzeros = self.nonzeros = lp.matrix.nonzeros
        scales = self.scales = lp.matrix.scales
        self.L, ints = integer_row([*lp.lower, *lp.upper, *lp.rhs])
        self.lower, self.upper, bs = ints[:c], ints[c : 2 * c], ints[2 * c :]
        self.rhs = tuple(v * s for v, s in zip(bs, scales))

        # rows: [N | I | value]; artificial i's value is r_i / L, r_i being
        # row i's residual at the all-lower start, and its range runs from 0
        # to it.  The phase-1 row is minus the sum of the rows weighted by
        # artificial i's cost sigma_i * k1 / s_i (see ``solve``).  The phase-2
        # row below it holds obj, as the artificials cost 0, and -k * L times
        # the objective at the start, where every structural is at its lower
        # bound
        lower = self.lower
        self.d = 1
        self.dens = [1] * (r + 2)
        self.T = []
        k1 = math.lcm(*scales)
        cost = [0] * (n + 1)
        for i, (nz, s, ri) in enumerate(zip(nonzeros, scales, self.rhs)):
            t = [0] * (n + 1)
            for j, a in nz:
                t[j] = a
                ri -= a * lower[j]
            t[c + i] = 1
            t[n] = ri
            self.T.append(t)
            if ri:
                w = k1 // s if ri > 0 else -(k1 // s)
                for j, a in nz:
                    cost[j] -= w * a
                cost[n] -= w * ri
        lower += [min(t[n], 0) for t in self.T]
        self.upper += [max(t[n], 0) for t in self.T]
        self.T.append(cost)
        self.k, self.obj = integer_row(lp.objective)
        start = sum(v * lo for v, lo in zip(self.obj, lower))
        self.T.append(self.obj + [0] * r + [-start])

    def copy(self):
        """An independent snapshot: rows and their denominators, basis,
        bounds and statuses."""
        new = object.__new__(Tableau)
        new.__dict__.update(self.__dict__)
        new.T = [row[:] for row in self.T]
        new.dens = self.dens[:]
        new.lower = self.lower[:]
        new.upper = self.upper[:]
        new.stat = self.stat[:]
        new.basis = self.basis[:]
        return new

    def _shift(self, q, step):
        """Add ``step`` times column q to the value column, as if nonbasic
        x_q fell by ``step / L``: a bound flip moves it by ``-step / L``;
        ``step = L * x_q`` takes x_q out of the nonbasic part before it enters
        the basis, and ``step = -L * x_q`` puts a leaving variable in."""
        if step:
            n = self.n
            for row in self.T:
                a = row[q]
                if a:
                    row[n] += a * step

    def _pivot(self, leave, q, leave_stat):
        """Swap x_q into the basis at row ``leave``; the leaving variable
        takes the bound ``leave_stat`` names."""
        stat, basis = self.stat, self.basis
        self._shift(q, self.lower[q] if stat[q] == _LOW else self.upper[q])
        lv = basis[leave]
        stat[lv] = leave_stat
        stat[q] = _BASIC
        basis[leave] = q
        self.d = pivot_update(self.T, leave, q, self.dens, self.d)
        self._shift(lv, -(self.lower[lv] if leave_stat == _LOW else self.upper[lv]))
        self.pivots += 1

    def _iterate(self):
        T, lower, upper, stat, basis = self.T, self.lower, self.upper, self.stat, self.basis
        dens = self.dens
        n = self.n
        cost_row = T[self.r]
        fixed = [lo == hi for lo, hi in zip(lower, upper)]
        for _ in range(_MAX_ITERATIONS):
            pos = dens[self.r] > 0
            entering = -1
            for j in range(n):
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
            # the ratio test: the step that row i allows is gap / (L * |a|),
            # gap being |dens[i]| * L times the distance from the basic value
            # to the bound the move drives it toward; the step does not depend
            # on the row's denominator, and caps compare as cross products
            leave = -1
            lg = la = 0
            leave_stat = _LOW
            for i in range(self.r):
                row = T[i]
                a = row[entering]
                if not a:
                    continue
                bi = basis[i]
                di = dens[i]
                pos = di > 0
                if ((a > 0) == pos) == up:
                    gap = row[n] - di * lower[bi]
                    hb = _LOW
                else:
                    gap = di * upper[bi] - row[n]
                    hb = _UP
                if not pos:
                    gap = -gap
                if a < 0:
                    a = -a
                if leave < 0 or gap * la < lg * a or (gap * la == lg * a and bi < basis[leave]):
                    leave, lg, la, leave_stat = i, gap, a, hb
            width = upper[entering] - lower[entering]

            if leave < 0 or width * la <= lg:
                self._shift(entering, -width if up else width)
                stat[entering] = _UP if up else _LOW
            else:
                if lg < 0:
                    raise PipelineInvariantError("negative ratio-test step")
                self._pivot(leave, entering, leave_stat)
        raise PipelineInvariantError("simplex iteration cap hit; anti-cycling rule broken")

    def _crash(self):
        """Crash start (Bixby 1992): each row's artificial leaves at 0 for
        the first nonbasic, non-fixed structural column, by (nonzeros in the
        LP's rows, index), whose move to absorb it keeps that column and
        every basic variable within its bounds (each artificial within its
        phase-1 range); a row with no such column keeps its artificial.

        A row whose artificial is already 0 moves nothing, so its first
        candidate passes at once; on any other row a candidate's own move
        (its sign and its width) is tested before the rows of its column."""
        T, lower, upper, stat, basis = self.T, self.lower, self.upper, self.stat, self.basis
        dens = self.dens
        c, n, r = self.c, self.n, self.r
        count = collections.Counter(j for nz in self.nonzeros for j, _ in nz)
        order = [j for j in sorted(range(c), key=lambda j: (count[j], j)) if lower[j] != upper[j]]
        for i in range(r):
            row = T[i]
            v = row[n]
            for j in order:
                a = row[j]
                if not a or stat[j] == _BASIC:
                    continue
                if v:
                    # x_j moves by v / (L * a) from its bound: up from the
                    # lower one, down from the upper one, by at most its width
                    if ((v > 0) == (a > 0)) != (stat[j] == _LOW):
                        continue
                    if abs(v) > (upper[j] - lower[j]) * abs(a):
                        continue
                    if not self._rows_absorb(row, j, v, a):
                        continue
                self._pivot(i, j, _LOW if lower[c + i] == 0 else _UP)
                break

    def _rows_absorb(self, row, j, v, a):
        """Whether every other row's basic value stays within its bounds
        when x_j moves by v / (L * a): row k's moves by -T[k][j] / dens[k]
        times that, to (T[k][n] * a - T[k][j] * v) / (dens[k] * a)."""
        lower, upper, n = self.lower, self.upper, self.n
        for t, dk, b in zip(self.T, self.dens, self.basis):
            f = t[j]
            if f and t is not row:
                num, den = t[n] * a - f * v, dk * a
                lo, hi = lower[b] * den, upper[b] * den
                if not (lo <= num <= hi if den > 0 else hi <= num <= lo):
                    return False
        return True

    def solve(self):
        """Cold two-phase solve from the crash basis; ``crash_pivots`` and
        ``phase1_pivots`` count the pivots before phase 2.

        Phase 1 minimizes the sum of the unscaled artificials a_i / s_i
        times their range's signs sigma, times k1 = lcm(scales): artificial
        i costs ``w_i = sigma_i * k1 / s_i``, an int.  At a positive optimum
        its multipliers y on the rows ``N x + a = S b`` (artificial i's
        reduced cost is w_i - y_i) are a Farkas certificate: ``y . S b``
        exceeds the largest ``y . N x`` over the bounds by that optimum or
        more, as each artificial's reduced cost times its value is <= 0."""
        self._crash()
        self.crash_pivots = self.pivots
        self._iterate()
        self.phase1_pivots = self.pivots - self.crash_pivots
        T, dens, r, c, n = self.T, self.dens, self.r, self.c, self.n
        # the phase-1 row's value entry is -dens[r] * L times its objective
        if T[r][n]:
            k1 = math.lcm(*self.scales)
            sigma = [(hi > 0) - (lo < 0) for lo, hi in zip(self.lower[c:], self.upper[c:])]
            y = [si * (k1 // s) * dens[r] - a for si, s, a in zip(sigma, self.scales, T[r][c:n])]
            self._certify_infeasible(y)
            return LPStatus.INFEASIBLE
        # every artificial is 0, so its bounds close on its value
        self.lower[c:] = [0] * r
        self.upper[c:] = [0] * r
        T[r] = T.pop()
        dens[r] = dens.pop()
        self._drop_artificials()
        return self._iterate()

    def _drop_artificials(self):
        """Cut the columns of the nonbasic artificials, fixed at 0 for good,
        from every row, after phase 1: rows become ``[structural | value |
        the columns of the still-basic artificials]`` and ``n`` becomes
        ``c``.  The phase-1 artificial block, B0^-1 row by row over each
        row's denominator, is kept for ``_farkas`` with ``d``, and with the
        positions in the cut rows of the phase-1 basis columns J0."""
        T, c, r = self.T, self.c, self.r
        keep = [j for j in self.basis if j >= c]
        at = {j: c + 1 + i for i, j in enumerate(keep)}
        block = [t[c : c + r] for t in T[:r]]
        cols = [c + r] + keep
        for t in T:
            t[c:] = [t[j] for j in cols]
        self.phase1 = (block, self.dens[:r], self.d, [at.get(j, j) for j in self.basis])
        self.n = c

    def _farkas(self, row):
        """The multipliers y, ints over a scale of either sign, that combine
        the rows of ``N x + a = S b`` into ``row``: ``row_J0 B0^-1``, the
        unique y with ``y . [N | I]`` equal to the row on J0, summed over
        the phase-1 rows, each brought over d0."""
        block, dens0, d0, at = self.phase1
        y = [0] * self.r
        for t, s, p in zip(block, dens0, at):
            b = row[p]
            if b:
                for i, a in enumerate(t):
                    if a:
                        y[i] += b * (a * d0 // s)
        return y

    def reoptimize(self, j, lo, hi, cutoff=None):
        """Give basic variable j the int bounds [lo, hi] (None keeps that
        bound) and restore optimality by the bounded dual simplex; OPTIMAL,
        INFEASIBLE or CUTOFF.

        The tableau must be optimal.  Its basis stays dual feasible under the
        new bounds, and no value moves until the first dual pivot.  A bound
        is held as itself times L, so L stays the scale it was when the
        tableau was built; a bound that is not an int raises, as branching
        bounds on integer variables are ints, and so does one that crosses
        the variable's other bound, before anything changes.

        The objective of a dual-feasible basis bounds the new optimum from
        below, so the search stops with CUTOFF once it reaches ``cutoff =
        (cost, cost_den)``, cost_den > 0: at once if the parent's objective
        reaches it, else as soon as the ratio test has picked a pivot whose
        objective would, before that pivot is made (and counted).  The step
        is exact: leaving x_l moving to its violated bound and x_q entering
        raise the objective by |d_q / alpha_lq| times x_l's distance to that
        bound.  This trusts dual feasibility alone, as pruning an optimal
        node by its objective does; a certificate of node optimality must
        cover cut-off nodes too.

        A leaving row with no entering column proves the node infeasible;
        the rows no longer hold the basis inverse, so its multipliers come
        from ``_farkas`` before ``_certify_infeasible`` checks them.
        """
        if self.stat[j] != _BASIC:
            raise PipelineInvariantError("bound change on a nonbasic variable")
        if not all(v is None or type(v) is int for v in (lo, hi)):
            raise PipelineInvariantError("bound change to a bound that is not an int")
        L = self.L
        lo = self.lower[j] if lo is None else lo * L
        hi = self.upper[j] if hi is None else hi * L
        if lo > hi:
            raise PipelineInvariantError("bound change crosses the other bound")
        self.lower[j], self.upper[j] = lo, hi
        T, lower, upper, stat, basis = self.T, self.lower, self.upper, self.stat, self.basis
        dens = self.dens
        r, n = self.r, self.n
        cost_row = T[r]
        kL = self.k * L
        self.pivots = 0
        # the objective is zr / (|dens[r]| * k * L), zr being -cost_row[n]
        # read against the sign of dens[r]; it reaches cost / cost_den when
        # zr * cost_den >= cost * |dens[r]| * k * L
        if cutoff is not None:
            cost, cost_den = cutoff
            zr = -cost_row[n] if dens[r] > 0 else cost_row[n]
            if zr * cost_den >= cost * abs(dens[r]) * kL:
                return LPStatus.CUTOFF
        for _ in range(_MAX_ITERATIONS):
            # the leaving row: the out-of-bounds basic variable of least
            # index; in a row over a negative denominator the value column
            # runs opposite to the values
            leave = -1
            for i in range(r):
                bi = basis[i]
                if leave >= 0 and bi > lv:
                    continue
                v = T[i][n]
                di = dens[i]
                lo_d = di * lower[bi]
                hi_d = di * upper[bi]
                if (v < lo_d or v > hi_d) if di > 0 else (v > lo_d or v < hi_d):
                    leave, lv = i, bi
            if leave < 0:
                return LPStatus.OPTIMAL

            # lv moves to the bound it violates; an entering column must move
            # it that way, and the least |reduced cost| / |entry| keeps every
            # reduced cost's sign (compared as cross products, ties to the
            # smallest index)
            row = T[leave]
            v = row[n]
            di = dens[leave]
            pos = di > 0
            to_low = v < di * lower[lv] if pos else v > di * lower[lv]
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
                self._certify_infeasible(self._farkas(row))
                return LPStatus.INFEASIBLE
            # the objective after the pivot: |d_q / alpha_lq| is qc * |di| /
            # (|dens[r]| * k * qa), and lv's distance to its bound is
            # |v - di * bound| / (|di| * L)
            if cutoff is not None:
                step = abs(v - di * (lower[lv] if to_low else upper[lv]))
                zr = -cost_row[n] if dens[r] > 0 else cost_row[n]
                if (zr * qa + qc * step) * cost_den >= cost * abs(dens[r]) * kL * qa:
                    return LPStatus.CUTOFF
            self._pivot(leave, q, _LOW if to_low else _UP)
        raise PipelineInvariantError("dual simplex iteration cap hit; anti-cycling rule broken")

    def _certify_infeasible(self, y):
        """Check that the row multipliers y, ints over a scale of either
        sign, prove the current bounds infeasible.

        Every solution x of the equations ``N x = S b`` has ``y . (N x) =
        y . (S b)``; the certificate holds when ``y . (S b)`` lies outside the
        range of ``y . N x`` over the bounds.  Both sides are recomputed from
        the LP's integer rows, scaled by L, not read from the tableau.
        """
        g = [0] * self.c
        rhs = 0
        for yi, nz, sb in zip(y, self.nonzeros, self.rhs):
            if yi:
                rhs += yi * sb
                for j, a in nz:
                    g[j] += yi * a
        least = most = 0
        for j, gj in enumerate(g):
            if gj:
                at_lo, at_hi = gj * self.lower[j], gj * self.upper[j]
                if gj < 0:
                    at_lo, at_hi = at_hi, at_lo
                least += at_lo
                most += at_hi
        if least <= rhs <= most:
            raise PipelineInvariantError("infeasibility certificate does not hold")

    def vertex_numerators(self):
        """The vertex of the current basis in integer form, checked against
        the equations and the current bounds: ``(values, den, cost,
        cost_den)``, x_j being ``values[j] / den`` and the objective
        ``cost / cost_den``, with both denominators positive."""
        c, n = self.c, self.n
        e = abs(self.d)
        lower, upper, stat = self.lower, self.upper, self.stat
        values = [(lower[j] if stat[j] == _LOW else upper[j]) * e for j in range(c)]
        # row i's value entry over e * L: row[n] / dens[i] is L times the value
        for row, di, b in zip(self.T, self.dens, self.basis):
            if b < c:
                values[b] = row[n] * e // di
        _verify_vertex(self.nonzeros, self.rhs, lower, upper, values, e)
        cost = 0
        for v, w in zip(values, self.obj):
            if v and w:
                cost += v * w
        den = e * self.L
        return values, den, cost, den * self.k

    def vertex(self):
        """The optimal vertex of the current basis, checked against the
        equations and the current bounds."""
        values, den, cost, cost_den = self.vertex_numerators()
        basis = tuple(sorted(b for b in self.basis if b < self.c))
        return VertexSolution(
            LPStatus.OPTIMAL,
            tuple(Rat(v, den) for v in values),
            basis,
            Rat(cost, cost_den),
            self.pivots,
        )


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


def _verify_vertex(nonzeros, rhs, lower, upper, values, e):
    """Raise unless values meet the bounds and the equations exactly.

    Everything is an integer numerator: each row's ``nonzeros`` (of ``s *
    A_i``, as in ``linalg.Matrix``), ``lower``, ``upper`` and ``rhs`` (one
    ``L * s * b_i`` per row) over a scale L > 0, and
    ``values`` over ``e * L`` with e > 0.  Each equation is checked over its
    row's nonzeros as a sum of integers.
    """
    for v, lo, hi in zip(values, lower, upper):
        if not lo * e <= v <= hi * e:
            raise PipelineInvariantError("vertex violates bounds")
    for nz, sb in zip(nonzeros, rhs):
        acc = 0
        for j, a in nz:
            acc += a * values[j]
        if acc != sb * e:
            raise PipelineInvariantError("vertex violates equations")

