import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nearfeas import backend
from nearfeas.branch_bound import MixedModel, SolveStats, solve_mip
from nearfeas.errors import NodeLimitExceeded
from nearfeas.rationals import Rat
from nearfeas.simplex import LinearProgram, LPStatus, Tableau, solve_lp_vertex
from test_simplex import _PINNED_LPS, _pinned_lp, dense_lp, int_cut, verify_rational_vertex


def mip_optimum_by_enumeration(model):
    """Fix every integer variable to each point of its box, solve the LP."""
    lp = model.lp
    ivars = sorted(model.integer_vars)
    ranges = [range(int(lp.lower[j]), int(lp.upper[j]) + 1) for j in ivars]
    best = None
    for point in itertools.product(*ranges):
        lower = list(lp.lower)
        upper = list(lp.upper)
        for j, v in zip(ivars, point):
            lower[j] = Rat(v)
            upper[j] = Rat(v)
        sol = solve_lp_vertex(
            LinearProgram(lp.matrix, lp.rhs, tuple(lower), tuple(upper), lp.objective)
        )
        if sol.status == LPStatus.OPTIMAL:
            if best is None or sol.objective_value < best:
                best = sol.objective_value
    return best


def test_two_variable_example():
    # minimize x s.t. 2y + x = 3, y integer in [0,5], x in [0,10]
    lp = dense_lp([[2, 1]], (3,), (0, 0), (5, 10), (0, 1))
    sol = solve_mip(MixedModel(lp, frozenset({0})))
    assert sol.numerators is not None
    assert sol.objective_value == 1
    assert sol.values[0] == 1 and sol.values[1] == 1


def test_fractional_target_infeasible():
    lp = dense_lp([[1]], (Rat(1, 2),), (0,), (1,), (1,))
    sol = solve_mip(MixedModel(lp, frozenset({0})))
    assert sol.numerators is None and sol.values is None and sol.objective_value is None


def test_no_integer_vars_degenerates_to_lp():
    lp = dense_lp([[1, 1]], (1,), (0, 0), (1, 1), (1, 0))
    mip = solve_mip(MixedModel(lp, frozenset()))
    vertex = solve_lp_vertex(lp)
    assert mip.numerators is not None
    assert mip.objective_value == vertex.objective_value
    assert mip.values == vertex.values


def _random_model(rng, max_int_vars=4, max_range=4):
    m = rng.randint(1, 2)
    n = rng.randint(2, 5)
    A = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    lower = [Rat(rng.randint(-2, 0)) for _ in range(n)]
    upper = [lo + rng.randint(0, max_range) for lo in lower]
    x0 = [rng.randint(int(lo), int(up)) for lo, up in zip(lower, upper)]
    if rng.random() < 0.7:
        b = [sum((A[i][j] * x0[j] for j in range(n)), Rat(0)) for i in range(m)]
    else:
        b = [Rat(rng.randint(-3, 3)) for _ in range(m)]
    obj = [Rat(rng.randint(-3, 3)) for _ in range(n)]
    lp = dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj))
    k = rng.randint(0, min(max_int_vars, n))
    ivars = frozenset(rng.sample(range(n), k))
    return MixedModel(lp, ivars)


def test_random_models_match_enumeration():
    rng = random.Random(23)
    solved = 0
    for _ in range(50):
        model = _random_model(rng)
        sol = solve_mip(model)
        expected = mip_optimum_by_enumeration(model)
        if expected is None:
            assert sol.numerators is None
        else:
            assert sol.numerators is not None
            assert sol.objective_value == expected
            for j in model.integer_vars:
                assert sol.values[j].denominator == 1
            solved += 1
    assert solved > 15


def test_root_relaxation_bounds_result():
    rng = random.Random(29)
    for _ in range(20):
        model = _random_model(rng)
        sol = solve_mip(model)
        root = solve_lp_vertex(model.lp)
        if sol.numerators is not None:
            assert root.status == LPStatus.OPTIMAL
            assert root.objective_value <= sol.objective_value


def test_node_limit_is_loud():
    n = 8
    A = [[Rat(1)] * n]
    lp = dense_lp(
        A, (Rat(2 * n - 1, 2),), (0,) * n, (1,) * n, (1,) * n
    )
    model = MixedModel(lp, frozenset(range(n)))
    with pytest.raises(NodeLimitExceeded):
        solve_mip(model, node_limit=2)


def test_stats_accumulate():
    stats = SolveStats()
    lp = dense_lp([[2, 1]], (3,), (0, 0), (5, 10), (0, 1))
    solve_mip(MixedModel(lp, frozenset({0})), stats=stats)
    assert stats.bb_nodes >= 1
    assert stats.lp_pivots >= 1


@pytest.mark.parametrize(
    "rows, rhs, upper, objective, counts",
    [
        # min x s.t. 2y + x = 3: the crash pivots y in at 3/2, the root; the
        # down child y <= 1 gives the incumbent y = x = 1 in one dual pivot,
        # the up child y >= 2 needs x < 0
        ([[2, 1]], (3,), (5, 10), (0, 1), (3, 1, 0, 1, 1, 1, 1)),
        # min -y + 5z s.t. 2y + x - z = 3: the root has y = 3/2; the down child
        # gives the incumbent y = x = 1 (objective -1), the up child's ratio
        # test picks the pivot to y = 2, z = 1 (objective 3), and the child
        # is cut off by the incumbent without making it
        ([[2, 1, -1]], (3,), (5, 10, 10), (-1, 0, 5), (3, 0, 1, 1, 1, 1, 1)),
        # min z s.t. 2y + x = 3, z free of the row: every node's objective is
        # 0, so the infeasible up child y >= 2 is cut off at its first
        # iteration, before any pivot, by the down child's incumbent
        ([[2, 1, 0]], (3,), (5, 10, 10), (0, 0, 1), (3, 0, 1, 1, 1, 1, 1)),
    ],
)
def test_branch_and_bound_counters(rows, rhs, upper, objective, counts):
    lp = dense_lp(rows, rhs, (0,) * len(upper), upper, objective)
    stats = SolveStats()
    solve_mip(MixedModel(lp, frozenset({0})), stats=stats)
    assert (
        stats.bb_nodes,
        stats.bb_infeasible,
        stats.bb_pruned,
        stats.bb_incumbents,
        stats.bb_max_depth,
        stats.lp_crash_pivots,
        stats.lp_dual_pivots,
    ) == counts
    assert stats.lp_pivots == sum(counts[5:])
    # a second search adds its counts and keeps the deeper of the two depths
    solve_mip(MixedModel(lp, frozenset()), stats=stats)
    assert stats.bb_nodes == counts[0] + 1
    assert stats.bb_incumbents == counts[3] + 1
    assert stats.bb_max_depth == counts[4]
    # the node limit and the solution's counts are those of one search, not
    # of the shared stats
    pivots = stats.lp_pivots
    sol = solve_mip(MixedModel(lp, frozenset({0})), node_limit=counts[0], stats=stats)
    assert (sol.nodes, sol.lp_pivots) == (counts[0], sum(counts[5:]))
    assert stats.bb_nodes == 2 * counts[0] + 1
    assert stats.lp_pivots == pivots + sum(counts[5:])


def test_integer_bounds_must_be_integral():
    lp = dense_lp([[1]], (0,), (Rat(1, 2),), (1,), (1,))
    with pytest.raises(ValueError):
        MixedModel(lp, frozenset({0}))


def test_up_child_after_deep_down_subtree():
    # min x1 - 2 x2 s.t. 3 x0 + 3 x1 + 2 x2 = 6, x0 in [0, 4] and x1 in [0, 2]
    # integer, x2 in [0, 1]: the root has x0 = 4/3.  Its down side takes a
    # whole subtree; the up child, re-optimized from the root's snapshot after
    # that subtree has pivoted the shared tableau, is the last node and holds
    # the optimum.
    lp = dense_lp([[3, 3, 2]], (6,), (0, 0, 0), (4, 2, 1), (0, 1, -2))
    model = MixedModel(lp, frozenset({0, 1}))
    down = MixedModel(
        LinearProgram(lp.matrix, lp.rhs, lp.lower, (1, 2, 1), lp.objective), model.integer_vars
    )
    down_stats = SolveStats()
    down_sol = solve_mip(down, stats=down_stats)
    assert down_stats.bb_max_depth >= 3

    stats = SolveStats()
    sol = solve_mip(model, stats=stats)
    assert stats.bb_nodes == down_stats.bb_nodes + 2  # root, down subtree, up child
    assert sol.objective_value == mip_optimum_by_enumeration(model)
    assert sol.objective_value < down_sol.objective_value
    assert sol.values[0] >= 2


def _child_lp(lp, j, lo, hi):
    lower, upper = list(lp.lower), list(lp.upper)
    if lo is not None:
        lower[j] = lo
    if hi is not None:
        upper[j] = hi
    return LinearProgram(lp.matrix, lp.rhs, tuple(lower), tuple(upper), lp.objective)


def _check_warm_child(lp, parent, j, lo, hi):
    """Re-optimize a snapshot of an optimal tableau of lp under new int
    bounds of basic variable j (None keeps a bound); it must agree with a
    cold solve of the child LP, and the parent tableau must be left as it
    was.  Returns the child's status and its re-optimized tableau."""
    before = parent.vertex()
    child = _child_lp(lp, j, lo, hi)
    cold = solve_lp_vertex(child)
    warm = parent.copy()
    status = warm.reoptimize(j, lo, hi)
    assert status == cold.status
    if status == LPStatus.OPTIMAL:
        sol = warm.vertex()
        assert sol.objective_value == cold.objective_value
        verify_rational_vertex(child, sol.values)
    assert parent.vertex() == before
    return status, warm


@st.composite
def _lp_and_cut(draw):
    """A small LP with rational data and right-hand sides, and bounds that
    are integral for some variables, as an integer variable's are, and
    rational for the others (bounds and free right-hand sides over
    denominators up to 6, so the tableau's scale L exceeds 1), and a cut for
    ``int_cut``: which basic variable (by rank), which side, and how far
    toward the far bound."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    lower, upper = [], []
    for _ in range(n):
        if draw(st.booleans()):
            lo = draw(st.integers(-2, 0))
            lower.append(Fraction(lo))
            upper.append(Fraction(draw(st.integers(lo + 1, lo + 3))))
        else:
            lower.append(draw(st.fractions(min_value=-2, max_value=0, max_denominator=6)))
            upper.append(draw(st.fractions(min_value=lower[-1], max_value=lower[-1] + 3, max_denominator=6)))
    if draw(st.integers(0, 3)):
        x0 = [draw(st.fractions(min_value=lo, max_value=hi, max_denominator=6)) for lo, hi in zip(lower, upper)]
        b = [sum((A[i][j] * x0[j] for j in range(n)), Fraction(0)) for i in range(m)]
    else:
        b = [draw(st.fractions(min_value=-4, max_value=4, max_denominator=6)) for _ in range(m)]
    obj = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    lp = dense_lp(A, tuple(b), tuple(lower), tuple(upper), tuple(obj))
    return lp, draw(st.integers(0, 4)), draw(st.booleans()), draw(st.integers(1, 2))


# the draws of the property below where int_cut makes a cut, under the
# derandomized profile: 119, with Hypothesis 6.155, and 85 to 128 in ten
# runs of the unseeded profile; and those whose child makes a bound flip in
# a long dual step: 18 there, and 12 to 33 in the same ten runs
_CUT_FLOOR = 40
_FLIP_FLOOR = 5


def test_warm_child_matches_cold_solve():
    cuts, flipped = [], []

    @settings(max_examples=300, deadline=None)
    @given(_lp_and_cut())
    # x0 + x1 = 3/2 over [0, 1]^2 leaves x0 basic at 1/2; x0 <= 0 is infeasible
    @example((dense_lp([[1, 1]], (Rat(3, 2),), (0, 0), (1, 1), (1, 0)), 0, False, 1))
    # and x0 >= 1 is optimal at x1 = 1/2, one dual pivot later
    @example((dense_lp([[1, 1]], (Rat(3, 2),), (0, 0), (1, 1), (1, 0)), 0, True, 1))
    def prop(case):
        lp, rank, up, k = case
        parent = Tableau(lp)
        if parent.solve() != LPStatus.OPTIMAL:
            return
        cut = int_cut(parent, rank, up, k)
        if cut is not None:
            cuts.append(cut)
            _, warm = _check_warm_child(lp, parent, *cut)
            flipped.append(warm.flips > 0)

    prop()
    if settings.default.derandomize:
        assert len(cuts) >= _CUT_FLOOR
        assert sum(flipped) >= _FLIP_FLOOR


def _unit_on_basis(lp, basis, y):
    """Whether ``y . [N | I]``, summed in ``Fraction`` from ``lp.matrix``
    alone, is on the basis columns a nonzero multiple of one unit vector."""
    c = lp.matrix.cols
    combined = [Fraction(0)] * c
    for yi, nz in zip(y, lp.matrix.nonzeros):
        for j, a in nz:
            combined[j] += Fraction(yi) * a
    on_basis = [combined[j] if j < c else Fraction(y[j - c]) for j in basis]
    return sum(1 for v in on_basis if v) == 1


# the draws of the property below with an infeasible child certified while
# an artificial is still basic from the crash, under the derandomized
# profile: 105 of the 261 draws with an optimal parent, with Hypothesis
# 6.155, and 51 to 114 in ten runs of the unseeded profile
_ARTIFICIAL_IN_J0_FLOOR = 10


def test_dual_farkas_multipliers_come_from_the_crash_basis():
    # after the crash the rows keep the structural columns, the value column
    # and the columns of the artificials still basic, and an infeasible
    # child's multipliers, recovered through the crash basis, combine the
    # LP's rows into a unit vector on the current basis
    reached = []

    @settings(max_examples=300, deadline=None)
    @given(_lp_and_cut())
    # the rows of the crash basis sit over unequal denominators, so each
    # must be brought over d0 before its multipliers add up
    @example(
        (
            dense_lp(
                [[0, 0, -2, -1], [-1, 0, 0, -1]], (1, 0), (0, 0, -1, 0), (1, 0, 0, 1), (0,) * 4
            ),
            1,
            False,
            1,
        )
    )
    # the artificial of the empty row stays basic, and the leaving row has a
    # nonzero in the column of a still-basic artificial
    @example(
        (
            dense_lp(
                [[0] * 5, [0, 0, 0, 1, 0], [0, 0, -3, Rat(1, 2), 0]],
                (0, 0, -1),
                (0, 0, 0, -2, 0),
                (0, 0, Rat(1, 3), 0, 0),
                (0,) * 5,
            ),
            0,
            False,
            1,
        )
    )
    def prop(case):
        lp = case[0]
        c = lp.matrix.cols
        drop, check = Tableau._drop_artificials, Tableau._certify_infeasible
        kept, calls = [], []

        def dropped(tab):
            kept.append(sum(j >= c for j in tab.basis))
            drop(tab)

        def certified(tab, y):
            assert _unit_on_basis(lp, tab.basis, y)
            calls.append(y)
            check(tab, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Tableau, "_drop_artificials", dropped)
            tab = Tableau(lp)
            status = tab.solve()
        if status != LPStatus.OPTIMAL:
            return
        assert len(kept) == 1 and all(len(row) == c + 1 + kept[0] for row in tab.T)
        # every cut int_cut makes on the optimum, each on its own copy
        basics = sum(j < c for j in tab.basis)
        infeasible = 0
        for rank, up, k in itertools.product(range(basics), (False, True), (1, 2)):
            cut = int_cut(tab, rank, up, k)
            if cut is None:
                continue
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Tableau, "_certify_infeasible", certified)
                status = tab.copy().reoptimize(*cut)
            assert len(calls) == (status == LPStatus.INFEASIBLE)
            infeasible += len(calls)
        reached.append(bool(infeasible and kept[0]))

    prop()
    if settings.default.derandomize:
        assert sum(reached) >= _ARTIFICIAL_IN_J0_FLOOR


def _free_run(tab, cut):
    """Re-optimize ``tab`` under ``cut`` with no cutoff, recording the
    objective and the basis before the first pivot and after each one:
    ``(status, [(objective, basis), ...])``."""
    pivot = Tableau._pivot
    states = []

    def record(t):
        objective = Rat(-t.T[t.r][t.n], t.dens[t.r] * t.k * t.L)
        states.append((objective, t.basis[:]))

    def recording_pivot(t, leave, q, leave_stat):
        pivot(t, leave, q, leave_stat)
        record(t)

    record(tab)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tableau, "_pivot", recording_pivot)
        status = tab.reoptimize(*cut)
    return status, states


# the draws of the property below that reach a child, under the
# derandomized profile: 86, with Hypothesis 6.155, and 87 to 112 in ten runs
# of the unseeded profile; of those, the children cut off at the start of
# the dual loop: 26 there, and 14 to 45 in the same ten runs; and those cut
# off at a breakpoint: 18 there, and 11 to 27
_CHILD_FLOOR = 40
_CUTOFF_AT_START_FLOOR = 10
_CUTOFF_AT_BREAKPOINT_FLOOR = 5


def test_a_cutoff_stops_only_a_child_that_cannot_beat_it():
    # two snapshots of one optimal tableau re-optimize the same cut, one
    # with a cutoff at the parent's objective plus halves / 2.  The free run
    # records its objective after each pivot: the cut-off run stops at once
    # if the parent's objective reaches the cutoff, and otherwise just
    # before the first pivot whose objective does; else it is the free run,
    # except that a free run ending infeasible may be cut off in its last
    # long step, at a breakpoint that reaches the cutoff before it passed
    # every candidate
    children, at_start, at_breakpoint = [], [], []

    @settings(max_examples=300, deadline=None)
    @given(_lp_and_cut(), st.integers(-2, 8))
    # x0 = 3/2 at the optimum -3, whose cost row sits over a negative
    # denominator; the child x0 >= 2 ends at -2, below the cutoff 0
    @example((dense_lp([[-2, 1]], (-3,), (0, 0), (3, 3), (-2, 2)), 0, True, 1), 6)
    # the cost row sits over a negative denominator at the optimum 31/4, x1 =
    # -1/4; the child x1 >= 0's one pivot reaches 33/4, exactly the cutoff, and
    # is declined
    @example(
        (
            dense_lp(
                [[-2, -2]],
                (Rat(11, 2),),
                (Rat(-7, 2), Rat(-1, 2)),
                (Rat(-5, 2), Rat(1, 2)),
                (-3, -1),
            ),
            0,
            True,
            1,
        ),
        1,
    )
    # a degenerate dual step: x2 = 2/3 at the optimum 0, and the child x2 <= 0's
    # first pivot keeps the objective at 0 (its entering column's reduced cost
    # is 0) and is made; the second reaches 1, exactly the cutoff, and is
    # declined
    @example(
        (dense_lp([[1, -1, 2]], (0,), (Rat(-4, 3), -1, -1), (-1, 0, 2), (-1, 0, -2)), 0, False, 1),
        2,
    )
    # x2 = 1/2 at the optimum -11/2; the child x2 >= 3 is infeasible, and its
    # long step passes x1's breakpoint at -3 by a flip, then reaches x0's at
    # -3/2, past the cutoff -2, so it stops there with one flip of the free
    # run's two
    @example(
        (dense_lp([[1, 1, 1]], (Rat(5, 2),), (0, 0, 0), (1, 1, 4), (-3, -2, -1)), 0, True, 3), 7
    )
    def prop(case, halves):
        lp, rank, up, k = case
        parent = Tableau(lp)
        if parent.solve() != LPStatus.OPTIMAL:
            return
        cut = int_cut(parent, rank, up, k)
        if cut is None:
            return
        children.append(cut)
        cutoff = parent.vertex().objective_value + Rat(halves, 2)
        stopped, free = parent.copy(), parent.copy()
        status = stopped.reoptimize(*cut, (cutoff.numerator, cutoff.denominator))
        free_status, states = _free_run(free, cut)
        objectives = [z for z, _ in states]
        # the dual objective never falls, and the free run ends on its optimum
        assert objectives == sorted(objectives)
        assert len(states) == free.pivots + 1
        if free_status == LPStatus.OPTIMAL:
            assert objectives[-1] == free.vertex().objective_value
        reached = [p for p, z in enumerate(objectives) if z >= cutoff]
        if status == LPStatus.CUTOFF:
            # the parent's objective reaches the cutoff, or a breakpoint does
            (at_start if reached and reached[0] == 0 else at_breakpoint).append(cut)
        if reached:
            kept = max(reached[0] - 1, 0)
            assert status == LPStatus.CUTOFF
            assert (stopped.pivots, stopped.basis) == (kept, states[kept][1])
        elif free_status == LPStatus.INFEASIBLE and status == LPStatus.CUTOFF:
            assert (stopped.pivots, stopped.basis) == (free.pivots, free.basis)
            assert stopped.flips < free.flips
        else:
            assert status == free_status
            assert (stopped.basis, stopped.pivots) == (free.basis, free.pivots)
            if status == LPStatus.OPTIMAL:
                assert stopped.vertex().objective_value < cutoff

    prop()
    if settings.default.derandomize:
        assert len(children) >= _CHILD_FLOOR
        assert len(at_start) >= _CUTOFF_AT_START_FLOOR
        assert len(at_breakpoint) >= _CUTOFF_AT_BREAKPOINT_FLOOR


def test_warm_children_of_pinned_degenerate_lps():
    statuses = []
    for case in _PINNED_LPS:
        lp = _pinned_lp(case)
        tab = Tableau(lp)
        assert tab.solve() == LPStatus.OPTIMAL
        basics = sum(j < tab.c for j in tab.basis)
        for rank, up, k in itertools.product(range(basics), (False, True), (1, 2)):
            cut = int_cut(tab, rank, up, k)
            if cut is not None:
                statuses.append(_check_warm_child(lp, tab, *cut)[0])
    assert LPStatus.OPTIMAL in statuses and LPStatus.INFEASIBLE in statuses


def test_fixed_column_never_enters_the_dual_ratio_test():
    # min -x0 - 3/2 x1  s.t.  x0 + x1 + x2 = 5/2, x1 fixed at 0.  The crash
    # pivots x0 in at 5/2, and x1's reduced cost -1/2 makes the cold solve
    # flip it to its upper bound, 0, which moves nothing.  Cutting x0 to
    # [0, 2] makes only x2 a candidate: it enters, and nothing flips.
    # Cutting x0 to [3, 3] would make x1, whose fall would raise x0, a
    # candidate of ratio 1/2: a long step would pass it by a flip that
    # moves nothing.  It is fixed, so the child has no candidate and is
    # infeasible at once.
    lp = dense_lp(
        [[1, 1, 1]],
        (Rat(5, 2),),
        (0, 0, 0),
        (3, 0, 5),
        (-1, Rat(-3, 2), 0),
    )
    tab = Tableau(lp)
    assert tab.solve() == LPStatus.OPTIMAL
    assert tab.basis == [0]
    up = tab.copy()
    assert tab.reoptimize(0, None, 2) == LPStatus.OPTIMAL
    assert (tab.pivots, tab.flips, tab.basis) == (1, 0, [2])
    sol = tab.vertex()
    assert sol.values == (2, 0, Rat(1, 2))
    assert sol.objective_value == -2
    assert up.reoptimize(0, 3, None) == LPStatus.INFEASIBLE
    assert (up.pivots, up.flips) == (0, 0)


# (rows, rhs, upper, objective, cut, (pivots, flips, basis)), every lower
# bound 0: children whose long dual steps flip, each optimal as its cold solve
_LONG_STEPS = [
    # min -3 x0 - x1 s.t. x0 - 3 x1 + x2 = 0: the root has x1 = 2/3, x0 = x2 =
    # 1.  For x1 <= 0, x2 (ratio 1) flips to 0, which leaves x1 1/3 above its
    # bound, a slope of 1 in the row's integer units; x0's flip (ratio 10)
    # would close the gap exactly, so it is not passed at slope 0 but enters,
    # at 0
    ([[1, -3, 1]], (0,), (1, 2, 1), (-3, -1, 0), (1, None, 0), (1, 1, [0])),
    # min -2 x0 - 2 x1 - x2 - 3 x3 s.t. x0 + x1 - x2 - 3 x3 = -7/2: the root
    # has x3 = 11/6.  For x3 <= 1 the least ratio is x2's 0, so x2 enters by a
    # plain pivot, though its flip would move x3 by only 1/3 of the 5/6; x2 =
    # 5/2 then leaves for 1, x0 and x1 tie at ratio 3, x0 flips to 0 and x1
    # enters
    (
        [[1, 1, -1, -3]],
        (Rat(-7, 2),),
        (1, 1, 1, 3),
        (-2, -2, -1, -3),
        (3, None, 1),
        (2, 1, [1]),
    ),
]


@pytest.mark.parametrize("rows, rhs, upper, objective, cut, effort", _LONG_STEPS)
def test_pinned_long_dual_steps(rows, rhs, upper, objective, cut, effort):
    lp = dense_lp(rows, rhs, (0,) * len(upper), upper, objective)
    parent = Tableau(lp)
    assert parent.solve() == LPStatus.OPTIMAL
    status, warm = _check_warm_child(lp, parent, *cut)
    assert status == LPStatus.OPTIMAL
    assert (warm.pivots, warm.flips, warm.basis) == effort


@pytest.mark.parametrize(
    "cutoff, status, flips",
    [
        (None, LPStatus.INFEASIBLE, 2),
        (-1, LPStatus.INFEASIBLE, 2),
        (-2, LPStatus.CUTOFF, 1),
        (-3, LPStatus.CUTOFF, 0),
    ],
)
def test_a_long_step_stops_at_the_breakpoint_that_reaches_the_cutoff(cutoff, status, flips):
    # min -3 x0 - 2 x1 - x2 s.t. x0 + x1 + x2 = 5/2: the root has x2 = 1/2
    # at -11/2.  The child x2 >= 3 is infeasible; its long step passes x1's
    # breakpoint, where the objective is -3, and x0's, at -3/2, and then has
    # no candidate left.  A cutoff stops it at the first breakpoint that
    # reaches it, before that flip and with no certificate
    lp = dense_lp([[1, 1, 1]], (Rat(5, 2),), (0, 0, 0), (1, 1, 4), (-3, -2, -1))
    tab = Tableau(lp)
    assert tab.solve() == LPStatus.OPTIMAL
    assert tab.basis == [2]
    bound = None if cutoff is None else (cutoff, 1)
    assert (tab.reoptimize(2, 3, None, bound), tab.pivots, tab.flips) == (status, 0, flips)


def _eager_pivot_update(rows, pr, pc, d):
    """Edmonds' pivot with every row over the common denominator d: each row
    is rewritten, whether its values change or not.  The reference for the
    per-row denominators of ``backend.pivot_update``."""
    prow = rows[pr]
    piv = prow[pc]
    for i, row in enumerate(rows):
        if i != pr:
            f = row[pc]
            row[:] = [(a * piv - f * p) // d for a, p in zip(row, prow)]
    return piv


def _eager_pivot(rows, pr, pc, dens, d):
    assert all(di == d for di in dens)
    piv = _eager_pivot_update(rows, pr, pc, d)
    dens[:] = [piv] * len(dens)
    return piv


def _reoptimize_chain(lp, first, steps):
    """Cold solve, then re-optimize snapshots under bound cuts, as
    branch-and-bound does: each step copies one of the tableaux made so far
    (``which``), cuts one basic variable by ``int_cut(rank, up, k)`` and
    re-optimizes the copy.  Returns every tableau with the status it
    reached."""
    tab = Tableau(lp)
    made = [(tab, tab.solve())]
    for which, rank, up, k in [(0,) + first] + steps:
        parent, status = made[which % len(made)]
        if status != LPStatus.OPTIMAL:
            continue
        cut = int_cut(parent, rank, up, k)
        if cut is None:
            continue
        child = parent.copy()
        made.append((child, child.reoptimize(*cut)))
    return made


_chain_steps = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 4), st.booleans(), st.integers(1, 2)), max_size=6
)


def _run_chain(lp, first, steps, kernel):
    """``_reoptimize_chain`` with ``kernel`` as the tableau's pivot; also
    returns the rows, their denominators and d after every pivot."""
    log = []

    def pivot(rows, pr, pc, dens, d):
        piv = kernel(rows, pr, pc, dens, d)
        log.append(([row[:] for row in rows], dens[:], piv))
        return piv

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nearfeas.simplex.pivot_update", pivot)
        made = _reoptimize_chain(lp, first, steps)
    return made, log


def _assert_over_d(rows, dens, d, ref_rows):
    """Each row brought over d, exactly, is the eager row."""
    for row, di, ref_row in zip(rows, dens, ref_rows):
        over_d = []
        for v in row:
            q, rem = divmod(v * d, di)
            assert rem == 0
            over_d.append(q)
        assert over_d == ref_row


@settings(max_examples=200, deadline=None)
@given(_lp_and_cut(), _chain_steps)
# the dual simplex's first leaving row sits over a denominator of the other
# sign than d, so its entering test must read the row's own sign
@example(
    (
        dense_lp(
            [[0, 0, -1, -1], [0, 1, 0, 0], [-1, 0, 0, 1]],
            (Rat(-1, 2), 0, Rat(1, 2)),
            (-1, -1, -1, Rat(-1, 2)),
            (0, 0, 0, 1),
            (0, 0, 0, 1),
        ),
        2,
        True,
        1,
    ),
    [],
)
# the crash leaves a row over a stale denominator, 1 while d is -1, so the
# child's dual simplex must read the row's own
@example(
    (
        dense_lp(
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            (1, 0, 0),
            (-1, 0, 0),
            (1, 2, 0),
            (0, 0, 0),
        ),
        0,
        False,
        1,
    ),
    [],
)
# the dual leaving-row scan meets a row over a stale denominator: in the
# root's second child, the row that leaves
@example(
    (
        dense_lp(
            [[0, 0, -1, -1], [-1, 0, 0, 1]],
            (0, 0),
            (0, 0, -1, Rat(-1, 2)),
            (1, 0, 1, Rat(1, 2)),
            (0, 0, 0, -1),
        ),
        0,
        False,
        1,
    ),
    [(0, 1, True, 1)],
)
def test_per_row_denominators_match_the_eager_tableau(case, steps):
    lp, rank, up, k = case
    made, log = _run_chain(lp, (rank, up, k), steps, backend.pivot_update)
    eager, ref_log = _run_chain(lp, (rank, up, k), steps, _eager_pivot)
    # every pivot, of every tableau in the order they were made
    assert len(log) == len(ref_log)
    for (rows, dens, d), (ref_rows, _, ref_d) in zip(log, ref_log):
        assert d == ref_d
        _assert_over_d(rows, dens, d, ref_rows)
    # every tableau's final state, snapshots included
    assert [s for _, s in made] == [s for _, s in eager]
    for (tab, status), (ref, _) in zip(made, eager):
        assert (tab.d, tab.basis, tab.stat, tab.L) == (ref.d, ref.basis, ref.stat, ref.L)
        assert (tab.lower, tab.upper) == (ref.lower, ref.upper)
        _assert_over_d(tab.T, tab.dens, tab.d, ref.T)
        if status == LPStatus.OPTIMAL:
            assert tab.vertex() == ref.vertex()


@settings(max_examples=50, deadline=None)
@given(_lp_and_cut())
def test_a_mutated_copy_leaves_its_parent_unchanged(case):
    lp = case[0]
    parent = Tableau(lp)
    parent.solve()
    rows, dens = [row[:] for row in parent.T], parent.dens[:]
    child = parent.copy()
    for i, row in enumerate(child.T):
        row[i % len(row)] += 1
        child.dens[i] *= 2
    child.dens.append(1)
    assert (parent.T, parent.dens) == (rows, dens)
