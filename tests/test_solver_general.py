import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas.boxes import partition_columns, snap_delta
from nearfeas.branch_bound import MIPStatus, MixedSolution, solve_mip
from nearfeas.errors import PipelineInvariantError, RefinementLimitExceeded
from nearfeas.generate import gen_general
from nearfeas.instances import ApproxParams, GeneralIP, NFoldConfigInstance, NFoldNonnegInstance
from nearfeas.oracle import brute_force_general
from nearfeas.rationals import Rat
from nearfeas.results import SolveStatus
from nearfeas.solver_config import solve_nfold_config
from nearfeas.solver_general import build_mip1, round_within_groups, solve_general
from nearfeas.solver_nfold import solve_nfold
from stages import record_stages
from structure import nonintegral_support, strictly_between_independent


def test_build_mip1_single_group():
    inst = GeneralIP.build([[1, 1]], [2], [1, 1], [0, 0], [2, 2])
    part = partition_columns(inst.H, Rat(1, 2))
    model = build_mip1(inst, part, Rat(0))
    assert len(model.mixed.integer_vars) == 1
    assert model.mixed.lp.matrix.rows == 1 + 1  # m coupling + 1 group row


def test_build_mip1_two_groups_row_count():
    inst = GeneralIP.build([[1, Rat(9, 10)], [0, Rat(1, 10)]], [1, 0], [1, 1], [0, 0], [1, 1])
    part = partition_columns(inst.H, Rat(1, 2))
    model = build_mip1(inst, part, Rat(0))
    assert len(model.mixed.integer_vars) == 2
    assert model.mixed.lp.matrix.rows == 2 + 2  # m + number of groups


def test_mip1_embeds_feasible_points():
    # any feasible integer x maps to a feasible (y, x) with equal objective
    rng = random.Random(3)
    for _ in range(10):
        inst = gen_general(rng, m=2, n=4, delta_max=3, bound_max=2)
        orc = brute_force_general(inst)
        if not orc.feasible:
            continue
        part = partition_columns(inst.H, Rat(1, 4))
        model = build_mip1(inst, part, slack_bound=Rat(0))
        mixed = solve_mip(model.mixed)
        assert mixed.status == MIPStatus.OPTIMAL
        assert mixed.objective_value <= orc.optimum


def test_round_within_groups_rejects_wide_fractional_support():
    # one coupling row, so a grouped part with 3 > 2m fractional entries
    # cannot be a vertex of LP2
    inst = GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2])
    part = partition_columns(inst.H, Rat(1, 10))
    model = build_mip1(inst, part, slack_bound=Rat(1))
    # every grouped entry 1/2: numerators over 2
    numerators = [0] * model.mixed.lp.matrix.cols
    for j in model.x:
        numerators[j] = 1
    mixed = MixedSolution(MIPStatus.OPTIMAL, numerators, 2, Rat(0))
    with pytest.raises(PipelineInvariantError, match="exceeds 2m=2"):
        round_within_groups(model, mixed)


def test_solve_three_column_example():
    inst = GeneralIP.build([[2, 3, 5]], [10], [1, 1, 1], [0, 0, 0], [3, 3, 2])
    res = solve_general(inst, ApproxParams.build(Rat(1, 5)))
    assert res.status == SolveStatus.OK
    assert res.objective <= 2  # oracle optimum
    assert res.report.max_abs_residual <= Rat(1)  # eps * Delta = 1
    assert res.report.within_bound


def test_solve_zero_instance():
    inst = GeneralIP.build([[1]], [0], [0], [0], [0])
    res = solve_general(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    assert res.x == (0,)
    assert res.report.max_abs_residual == 0


def test_solve_infeasible_original_still_near_feasible():
    inst = GeneralIP.build([[2]], [3], [1], [0], [5])
    res = solve_general(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    assert res.x[0] in (1, 2)
    assert abs(2 * res.x[0] - 3) <= 1
    assert not brute_force_general(inst).feasible


def test_solve_infeasible_relaxation():
    # 2x = 31 with eps*Delta = 1/5*2: no integer within 2/5 of 15.5
    inst = GeneralIP.build([[2]], [31], [1], [0], [5])
    res = solve_general(inst, ApproxParams.build(Rat(1, 5)))
    assert res.status == SolveStatus.INFEASIBLE
    assert res.x is None


def test_guarantees_on_random_instances():
    rng = random.Random(101)
    solved = 0
    with record_stages() as trace:
        for _ in range(25):
            inst = gen_general(rng, m=rng.randint(1, 3), n=rng.randint(2, 7))
            eps = rng.choice((Rat(1), Rat(1, 2), Rat(1, 5)))
            res = solve_general(inst, ApproxParams.build(eps))
            orc = brute_force_general(inst)
            delta = inst.H.inf_norm()
            assert res.status == SolveStatus.OK
            assert res.report.within_bound
            assert res.report.max_abs_residual <= eps * delta
            if orc.feasible:
                assert res.objective <= orc.optimum
                solved += 1
    assert solved >= 20
    # support and nonsingularity bounds on every grouped part it rounded
    assert trace.grouped_optima
    for model, values in trace.grouped_optima:
        x = values[model.x.start : model.x.stop]
        assert len(nonintegral_support(x)) <= 2 * len(model.coupling)
        assert strictly_between_independent(model.mixed.lp, values, model.x)


def test_group_sum_conservation():
    rng = random.Random(7)
    inst = gen_general(rng, m=2, n=6)
    with record_stages() as trace:
        res = solve_general(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    # the accepted attempt is the last one recorded
    model, values = trace.grouped_optima[-1]
    x = values[model.x.start : model.x.stop]
    assert model.part.groups
    for members in model.part.groups.values():
        assert sum(res.x[j] for j in members) == sum(x[j] for j in members)


# One instance per pipeline that verifies only after its width is halved:
# (solve, instance, epsilon, delta_override, halvings needed, accepted width)
REFINING = {
    "general": (
        solve_general,
        GeneralIP.build([[1, "3/2", 1]], [1], ["-3/2", 1, 1], [-1, -1, 1], [2, 0, 2]),
        Rat(1, 5),
        Rat(1),
        2,
        snap_delta(Rat(1, 4)),
    ),
    "config": (
        solve_nfold_config,
        NFoldConfigInstance.build(
            [
                ([[-1, "5/2"]], [[-1, -2], [2, -1]], ["3/2", 3]),
                ([[-1, "-1/2"]], [[2, 2], [2, 0]], ["-1/2", "5/2"]),
            ],
            ["-15/2"],
        ),
        Rat(1, 2),
        Rat(1),
        1,
        Rat(1, 2),
    ),
    # case 2, whose first attempt clamps; its closed-form width is 1/140
    "case2": (
        solve_nfold,
        NFoldNonnegInstance.build(
            [
                ([["5/2", "1/13"]], [[2, "3/2"]], ["69/26"], [1, 2], [1, 3]),
                ([["5/2", "1/2"]], [[1, 0]], [0], [1, 0], [0, 3]),
                ([[3, "1/24"]], [[0, 3]], ["37/12"], [1, 2], [1, 2]),
            ],
            [11],
        ),
        Rat(1, 5),
        None,
        1,
        Rat(1, 280),
    ),
}


@pytest.mark.parametrize("pipeline", sorted(REFINING))
def test_the_refinement_limit_is_reached_in_every_pipeline(pipeline):
    solve, inst, eps, delta, needed, accepted = REFINING[pipeline]
    short = ApproxParams.build(eps, delta_override=delta, refinement_limit=needed - 1)
    with pytest.raises(RefinementLimitExceeded, match=f"after {needed - 1} refinements"):
        solve(inst, short)
    res = solve(inst, ApproxParams.build(eps, delta_override=delta, refinement_limit=needed))
    assert res.status == SolveStatus.OK and res.report.within_bound
    assert (res.refinements, res.delta_used) == (needed, accepted)


@pytest.mark.parametrize("pipeline", sorted(REFINING))
def test_a_refining_solve_leaves_no_cyclic_garbage(pipeline):
    """The attempts and their results are freed by reference counting alone."""
    solve, inst, eps, delta, needed, _ = REFINING[pipeline]
    params = ApproxParams.build(eps, delta_override=delta)
    gc.collect()
    gc.disable()
    try:
        assert solve(inst, params).refinements == needed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_round_within_groups(model, values):
    """The grouped rounding over plain Fractions: the floor and fractional
    part of each entry, the group's fractional mass, the gamma cheapest
    members rounded up, and the cost of the result."""
    vertex = values[model.x.start : model.x.stop]
    m = len(model.coupling)
    support = sum(1 for v in vertex if v.denominator != 1)
    if support > 2 * m:
        raise PipelineInvariantError(f"fractional support {support} exceeds 2m={2 * m}")
    costs = model.mixed.lp.objective[model.x.start : model.x.stop]
    out = list(vertex)
    for members in model.part.groups.values():
        fractional = sorted(
            (costs[j], j, math.floor(vertex[j])) for j in members if vertex[j].denominator != 1
        )
        gamma = sum((vertex[j] - fl for _, j, fl in fractional), Fraction(0))
        if gamma.denominator != 1:
            raise PipelineInvariantError("group fractional mass is not an integer")
        for pos, (_, j, fl) in enumerate(fractional):
            out[j] = fl + (1 if pos < gamma else 0)
    x = tuple(int(v) for v in out)
    return x, sum((c * v for c, v in zip(costs, x)), Fraction(0))


_GROUP_RATS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _grouped_optima(draw):
    """A general model and a candidate grouped part over a random positive
    denominator: mostly integral entries, each group's mass made integral
    unless the case is a corrupted one."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    H = [draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)) for _ in range(m)]
    w = draw(st.lists(_GROUP_RATS, min_size=n, max_size=n))
    inst = GeneralIP.build(H, [1] * m, w, [0] * n, [4] * n)
    part = partition_columns(inst.H, draw(st.sampled_from([Rat(1), Rat(1, 2)])))
    model = build_mip1(inst, part, slack_bound=Rat(1))
    den = draw(st.integers(2, 6))
    numerators = [0] * model.mixed.lp.matrix.cols
    for j in model.x:
        fraction = draw(st.integers(1, den - 1)) if draw(st.booleans()) else 0
        numerators[j] = draw(st.integers(0, 3)) * den + fraction
    if not draw(st.integers(0, 4)) == 0:  # balance each group's mass
        for members in part.groups.values():
            last = model.x.start + members[-1]
            numerators[last] += -sum(numerators[model.x.start + j] for j in members) % den
    return model, numerators, den


@settings(max_examples=300, deadline=None)
@given(_grouped_optima())
def test_integer_group_rounding_matches_a_fraction_reference(case):
    """Same x and cost as plain Fraction rounding, and the same
    PipelineInvariantError when the support is too wide or a group's mass is
    not integral."""
    model, numerators, den = case
    mixed = MixedSolution(MIPStatus.OPTIMAL, numerators, den, Rat(0))
    try:
        expected = _reference_round_within_groups(model, mixed.values)
    except PipelineInvariantError as exc:
        with pytest.raises(PipelineInvariantError) as got:
            round_within_groups(model, mixed)
        assert str(got.value) == str(exc)
        return
    x, cost = round_within_groups(model, mixed)
    assert (x, cost) == expected
    # the rounded cost never exceeds the unrounded one
    costs = model.mixed.lp.objective[model.x.start : model.x.stop]
    assert cost <= sum((c * v for c, v in zip(costs, mixed.values[model.x.start :])), Fraction(0))
