"""The part a pipeline rounds is an optimal vertex of its pinned restriction.

Each pipeline rounds a part of the mixed optimum as it stands: the general
pipeline (and nonnegative n-fold case 2, for its minors) the grouped
variables x, both block pipelines the selections z.  The restriction this
rests on is rebuilt here as a reference: the LP over the part's columns and
rows, with every other column pinned at the mixed optimum.  The part must
satisfy it and be one of its vertices, and the restriction's cold optimum
must equal the part's cost.  Instances are drawn with and without an exactly
feasible point, so slack-bounded, unattainable and refined runs are covered.
"""

import random

from hypothesis import given, settings, strategies as st

from nearfeas.errors import RefinementLimitExceeded
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import ApproxParams
from nearfeas.rationals import Rat
from nearfeas.results import SolveStatus
from nearfeas.simplex import LPStatus, solve_lp_vertex
from nearfeas.solver_config import solve_nfold_config
from nearfeas.solver_general import solve_general
from nearfeas.solver_nfold import solve_nfold
from stages import record_stages
from structure import strictly_between_independent
from test_simplex import dense_lp, dense_rows

EPSILONS = st.sampled_from((Rat(1), Rat(1, 2), Rat(1, 5), Rat(1, 10)))


def _params(eps, coarse):
    """A coarse first width (a box per sign and row) leaves fractional parts
    far more often than the default one."""
    if coarse:
        return ApproxParams.build(eps, delta_override=Rat(1), refinement_limit=16)
    return ApproxParams.build(eps)


def pinned_restriction(lp, cols, rows, values):
    """The LP over ``cols`` and ``rows`` of ``lp`` with every other column
    fixed at ``values``: row i's right-hand side is b_i less the fixed
    columns' share."""
    kept = set(cols)
    A = dense_rows(lp.matrix)
    sub = []
    rhs = []
    for i in rows:
        sub.append([A[i][j] for j in cols])
        fixed = sum((a * values[j] for j, a in enumerate(A[i]) if j not in kept), Rat(0))
        rhs.append(lp.rhs[i] - fixed)
    return dense_lp(
        sub,
        rhs,
        [lp.lower[j] for j in cols],
        [lp.upper[j] for j in cols],
        [lp.objective[j] for j in cols],
    )


def _assert_optimal_vertex(model, values, cols, rows):
    sub = pinned_restriction(model.mixed.lp, cols, rows, values)
    part = tuple(values[j] for j in cols)
    assert [sum((a * v for a, v in zip(row, part)), Rat(0)) for row in dense_rows(sub.matrix)] == list(sub.rhs)
    assert all(lo <= v <= hi for lo, v, hi in zip(sub.lower, part, sub.upper))
    assert strictly_between_independent(sub, part, range(len(cols)))
    ref = solve_lp_vertex(sub)
    assert ref.status == LPStatus.OPTIMAL
    assert ref.objective_value == sum((c * v for c, v in zip(sub.objective, part)), Rat(0))


def _assert_trace(trace):
    for model, values in trace.grouped_optima:
        _assert_optimal_vertex(model, values, model.x, (*model.coupling, *model.groups))
    for model, values in trace.selection_optima:
        rows = (*model.coupling, *model.linking, *model.selection)
        _assert_optimal_vertex(model, values, range(model.z[-1].stop), rows)


def _solve(solver, inst, params):
    with record_stages() as trace:
        try:
            res = solver(inst, params)
        except RefinementLimitExceeded:
            res = None
    _assert_trace(trace)
    return res, trace


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), EPSILONS, st.booleans())
def test_general_grouped_part_is_an_optimal_restriction_vertex(seed, eps, coarse):
    rng = random.Random(seed)
    inst = gen_general(
        rng, m=rng.randint(1, 3), n=rng.randint(2, 7), feasible=rng.random() >= 0.2
    )
    res, trace = _solve(solve_general, inst, _params(eps, coarse))
    if res is not None and res.status == SolveStatus.OK:
        assert len(trace.grouped_optima) == res.refinements + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), EPSILONS, st.booleans())
def test_config_selection_part_is_an_optimal_restriction_vertex(seed, eps, coarse):
    rng = random.Random(seed)
    inst = gen_config(
        rng,
        n_blocks=rng.randint(4, 10),
        s=rng.randint(1, 2),
        t=1,
        max_configs=3,
        feasible=rng.random() >= 0.2,
    )
    res, trace = _solve(solve_nfold_config, inst, _params(eps, coarse))
    if res is not None and res.status != SolveStatus.INFEASIBLE:
        assert trace.selection_optima


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), EPSILONS, st.booleans())
def test_case2_parts_are_optimal_restriction_vertices(seed, eps, coarse):
    rng = random.Random(seed)
    inst = gen_nonneg(
        rng,
        n_blocks=rng.randint(1, 4),
        s_a=1,
        s_d=rng.randint(1, 2),
        t=rng.randint(2, 3),
        feasible=rng.random() >= 0.2,
        small_bias=1.0,
    )
    res, trace = _solve(solve_nfold, inst, _params(eps, coarse))
    if res is not None and "case2" in res.notes and res.status == SolveStatus.OK:
        assert trace.selection_optima
