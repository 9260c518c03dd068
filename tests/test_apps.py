import math
import random

import pytest

from nearfeas.apps import gap_to_config, knapsack_to_general, scheduling_to_config
from nearfeas.errors import InstanceFormatError, InvalidInstanceError
from nearfeas.generate import gen_scheduling
from nearfeas.instances import ApproxParams, NFoldConfigInstance
from nearfeas.oracle import brute_force_general
from nearfeas.rationals import Rat
from nearfeas.results import SolveStatus
from nearfeas.solver_config import solve_nfold_config
from nearfeas.solver_general import solve_general


def test_knapsack_two_items():
    inst, decode = knapsack_to_general([4, 5], [[3, 4]], [5])
    orc = brute_force_general(inst)
    assert orc.feasible and orc.optimum == -5
    assert decode(orc.witness) == (0, 1)


def test_knapsack_zero_items():
    inst, decode = knapsack_to_general([], [[]], [7])
    orc = brute_force_general(inst)
    assert orc.feasible and orc.optimum == 0
    assert orc.witness == (7,)  # slack = capacity
    assert decode(orc.witness) == ()


def test_knapsack_zero_capacity():
    inst, decode = knapsack_to_general([3, 2], [[1, 1]], [0])
    orc = brute_force_general(inst)
    assert orc.feasible and orc.optimum == 0
    assert decode(orc.witness) == (0, 0)


def test_knapsack_solve_pipeline():
    inst, decode = knapsack_to_general([4, 5], [[3, 4]], [5])
    res = solve_general(inst, ApproxParams.build(Rat(1, 5)))
    assert res.status == SolveStatus.OK
    assert res.objective <= -5


def test_scheduling_small_cases():
    inst, decode = scheduling_to_config([[1, 2], [2, 1]], 2)
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    d = decode(res.x)
    assert d.loads == (Rat(1), Rat(1))

    inst2, decode2 = scheduling_to_config([[1]], 1)
    res2 = solve_nfold_config(inst2, ApproxParams.build(Rat(1, 2)))
    d2 = decode2(res2.x)
    assert d2.assignment == (0,) and d2.makespan == 1

    # unit-vector configurations: job blocks have kappa = 1 and t = m
    inst3, _ = scheduling_to_config([[2, 3]], 4)
    job_block = inst3.blocks[0]
    assert job_block.D.cols == 2
    assert all(max(abs(v) for v in cfg) == 1 for cfg in job_block.configs)


def test_scheduling_additive_guarantee():
    rng = random.Random(99)
    for _ in range(8):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        p = [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)]
        loads = [0] * m
        for i in range(n):
            h = rng.randrange(m)
            loads[h] += p[i][h]
        cmax = max(max(loads), 1)
        inst, decode = scheduling_to_config(p, cmax)
        eps = Rat(1, 2)
        res = solve_nfold_config(inst, ApproxParams.build(eps))
        assert res.status == SolveStatus.OK
        d = decode(res.x)
        maxp = max(v for row in p for v in row)
        assert d.makespan <= cmax + eps * maxp


def test_scheduling_rational_times_are_scaled():
    inst, decode = scheduling_to_config([[Rat(1, 2), Rat(3, 2)]], Rat(3, 2))
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    d = decode(res.x)
    assert d.makespan in (Rat(1, 2), Rat(3, 2))


def _core_through_the_codecs(p, cmax, costs=None):
    """The configuration core of the scheduling reduction, written as plain
    lists and checked and coerced by ``NFoldConfigInstance.build``: one block
    per job (D the diagonal of its scaled times, unit configurations, its
    costs) and one slack block per machine (identity D, configurations k *
    e_h for k = 0..cmax), over b0 = cmax on every machine."""
    m = len(p[0])
    scale = math.lcm(Rat(cmax).denominator, *(Rat(v).denominator for row in p for v in row))
    units = [[int(k == h) for k in range(m)] for h in range(m)]
    blocks = []
    for i, row in enumerate(p):
        D = [[int(Rat(v) * scale) if k == h else 0 for k in range(m)] for h, v in enumerate(row)]
        blocks.append((D, units, costs[i] if costs is not None else [0] * m))
    top = int(Rat(cmax) * scale)
    for h in range(m):
        slack = [[k * int(j == h) for j in range(m)] for k in range(top + 1)]
        blocks.append((units, slack, [0] * m))
    return NFoldConfigInstance.build(blocks, [top] * m)


def test_scheduling_core_equals_the_core_built_through_the_codecs():
    rng = random.Random(5)
    cases = [
        ([[1, 2], [2, 1]], 0, None),
        ([[3]], 0, [[2]]),
        ([[Rat(1, 2), Rat(3, 2)], [Rat(2, 3), 1]], Rat(5, 2), [["1/2", 0], [1, "3/4"]]),
    ]
    for k in range(12):
        data = gen_scheduling(rng, rng.randint(1, 5), rng.randint(1, 3), with_costs=k % 2 == 1)
        cases.append((data["jobs"], data["cmax"], data.get("costs")))
    for p, cmax, costs in cases:
        inst, _ = scheduling_to_config(p, cmax, costs)
        ref = _core_through_the_codecs(p, cmax, costs)
        assert inst == ref
        for blk, ref_blk in zip(inst.blocks, ref.blocks):
            assert blk.D == ref_blk.D
            assert [type(v) for v in blk.weights] == [type(v) for v in ref_blk.weights]


def test_roundtrip_residuals():
    # decoding then re-encoding reproduces the same residuals
    inst, decode = scheduling_to_config([[1, 2], [2, 1]], 2)
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    d = decode(res.x)
    reencoded = []
    for i, h in enumerate(d.assignment):
        reencoded.append(tuple(1 if k == h else 0 for k in range(2)))
    for want, got in zip(res.x[: len(reencoded)], reencoded):
        assert want == got


def test_gap_small_cases():
    inst, decode = gap_to_config([[1, 1]], [[3, 1]], 1)
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    d, within = decode(res.x)
    assert d.assignment == (1,)
    assert d.cost == 1
    assert within is None

    # equal costs: a deterministic assignment is returned
    inst2, decode2 = gap_to_config([[1, 1]], [[2, 2]], 1, budget=5)
    res2 = solve_nfold_config(inst2, ApproxParams.build(Rat(1, 2)))
    d2, within2 = decode2(res2.x)
    assert d2.cost == 2 and within2 is True

    res2b = solve_nfold_config(inst2, ApproxParams.build(Rat(1, 2)))
    d2b, _ = decode2(res2b.x)
    assert d2b.assignment == d2.assignment  # determinism


def test_gap_infeasible_cmax_flagged():
    # single job with p = 3 on both machines, cmax = 1, eps = 1/10:
    # loads cannot come near cmax
    inst, decode = gap_to_config([[3, 3]], [[1, 1]], 1)
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 10)))
    assert res.status == SolveStatus.NEAR_FEASIBILITY_UNATTAINABLE
    assert not res.report.within_bound


def test_knapsack_rejects_bad_data():
    with pytest.raises(ValueError):
        knapsack_to_general([1], [[-1]], [2])
    with pytest.raises(ValueError):
        knapsack_to_general([1], [[1], [1]], [2])


def test_knapsack_integer_data_passes_the_integer_codec():
    # no value is truncated: each raises at its path, as in an instance file
    for weights, capacities, path in (
        ([[1.5]], [2], "$.weights[0][0]"),
        ([[True]], [2], "$.weights[0][0]"),
        ([[1]], ["3"], "$.capacities[0]"),
        ([[1]], [2.7], "$.capacities[0]"),
        ([[1]], [Rat(5, 2)], "$.capacities[0]"),
        ([[1], 2], [2, 2], "$.weights[1]"),
    ):
        with pytest.raises(InstanceFormatError) as exc:
            knapsack_to_general([1], weights, capacities)
        assert exc.value.path == path


def test_scheduling_rejects_bad_data():
    for p, cmax, costs, message in (
        ([[1, 2], [3]], 2, None, "dimension mismatch: processing times"),
        ([[1, -2]], 2, None, "scheduling data must be nonnegative"),
        ([[1, 2]], -1, None, "scheduling data must be nonnegative"),
        ([[1, 2]], 2, [[0, 1], [1, 0]], "dimension mismatch: costs"),
        ([[]], 2, None, "dimension mismatch: no machines"),
    ):
        with pytest.raises(InvalidInstanceError, match=message):
            scheduling_to_config(p, cmax, costs=costs)
