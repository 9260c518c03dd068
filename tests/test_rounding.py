import itertools
import random
from fractions import Fraction

import pytest

from nearfeas.errors import PipelineInvariantError
from nearfeas.rounding import (
    AssignmentRestriction,
    GroupRoundingPlan,
    greedy_group_round,
    tu_round,
)
from nearfeas.rationals import Rat


def test_greedy_rounds_cheapest_up():
    # values 1/2, 7/10 and 4/5 as numerators over 10
    plan = GroupRoundingPlan.build([(0, 5, Rat(1)), (1, 7, Rat(2)), (2, 8, Rat(3))], 10)
    assert plan.gamma == 2
    out = greedy_group_round(plan)
    assert out == {0: 1, 1: 1, 2: 0}
    # objective 3 <= fractional 43/10
    assert 1 * 1 + 2 * 1 + 3 * 0 <= Rat(43, 10)


def test_greedy_all_integral_unchanged():
    plan = GroupRoundingPlan.build([(0, 2, Rat(1)), (1, 0, Rat(5))], 1)
    assert plan.gamma == 0
    assert greedy_group_round(plan) == {}


def test_greedy_weight_order():
    plan = GroupRoundingPlan.build([(0, 1, Rat(2)), (1, 1, Rat(1))], 2)
    assert plan.gamma == 1
    assert greedy_group_round(plan) == {1: 1, 0: 0}


def test_greedy_nonintegral_gamma_is_loud():
    with pytest.raises(PipelineInvariantError):
        GroupRoundingPlan.build([(0, 1, Rat(1))], 3)


def test_greedy_is_optimal_among_sum_preserving_roundings():
    rng = random.Random(31)
    for _ in range(50):
        k = rng.randint(1, 5)
        fracs = []
        while True:
            fracs = [Fraction(rng.randint(1, 3), 4) for _ in range(k)]
            if sum(f for f in fracs) % 1 == 0:
                break
            if rng.random() < 0.2:
                total = sum(fracs)
                pad = (-total) % 1
                if 0 < pad < 1:
                    fracs.append(Fraction(pad))
                    break
        weights = [Fraction(rng.randint(-3, 3)) for _ in range(len(fracs))]
        entries = [(i, Fraction(rng.randint(0, 2)) + f, w) for i, (f, w) in enumerate(zip(fracs, weights))]
        # every value is a multiple of 1/4
        plan = GroupRoundingPlan.build([(i, int(v * 4), w) for i, v, w in entries], 4)
        out = greedy_group_round(plan)
        got = sum(w * out[i] for i, v, w in entries)
        # brute force over all sum-preserving up/down choices
        best = None
        idx = [i for i, v, w in entries]
        floors = {i: v.numerator // v.denominator for i, v, w in entries}
        for ups in itertools.combinations(idx, plan.gamma):
            val = sum(
                w * (floors[i] + (1 if i in ups else 0)) for i, v, w in entries
            )
            if best is None or val < best:
                best = val
        assert got == best


def test_tu_round_two_by_two_assignment():
    # z = [[1/2,1/2],[1/2,1/2]], costs [[1,2],[2,1]] -> pick diagonal, cost 2
    keys = ((0, 0), (0, 1), (1, 0), (1, 1))
    restriction = AssignmentRestriction(
        keys,
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (Rat(1), Rat(1)),
        (Rat(1), Rat(1)),
        (Rat(1), Rat(2), Rat(2), Rat(1)),
    )
    out = tu_round(restriction)
    assert out == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}


def test_tu_round_forced_by_marginals():
    keys = ((0, 0), (0, 1))
    restriction = AssignmentRestriction(
        keys, (0, 0), (0, 1), (Rat(1),), (Rat(0), Rat(1)), (Rat(5), Rat(3))
    )
    assert tu_round(restriction) == {(0, 0): 0, (0, 1): 1}


def test_tu_round_empty():
    restriction = AssignmentRestriction((), (), (), (), (), ())
    assert tu_round(restriction) == {}


def test_tu_round_rejects_fractional_marginals():
    with pytest.raises(PipelineInvariantError):
        AssignmentRestriction(((0, 0),), (0,), (0,), (Rat(1, 2),), (Rat(1, 2),), (Rat(1),))


def _transportation_optimum(supply, demand, costs):
    """Brute force integral transportation: enumerate all integral flows."""
    rows = len(supply)
    cols = len(demand)
    best = None

    def rec(i, remaining_supply, remaining_demand, acc):
        nonlocal best
        if i == rows * cols:
            if all(v == 0 for v in remaining_supply) and all(
                v == 0 for v in remaining_demand
            ):
                if best is None or acc < best:
                    best = acc
            return
        r, c = divmod(i, cols)
        hi = min(remaining_supply[r], remaining_demand[c], 1)
        for v in range(hi + 1):
            remaining_supply[r] -= v
            remaining_demand[c] -= v
            rec(i + 1, remaining_supply, remaining_demand, acc + v * costs[r][c])
            remaining_supply[r] += v
            remaining_demand[c] += v

    rec(0, list(supply), list(demand), Fraction(0))
    return best


def test_tu_round_matches_bruteforce_transportation():
    rng = random.Random(37)
    for _ in range(50):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        # each left node has unit mass; right marginals sum to rows
        demand = [0] * cols
        for _ in range(rows):
            demand[rng.randrange(cols)] += 1
        costs = [[Fraction(rng.randint(0, 5)) for _ in range(cols)] for _ in range(rows)]
        keys = tuple((r, c) for r in range(rows) for c in range(cols))
        restriction = AssignmentRestriction(
            keys,
            tuple(r for r, c in keys),
            tuple(c for r, c in keys),
            tuple(Rat(1) for _ in range(rows)),
            tuple(Rat(d) for d in demand),
            tuple(Rat(costs[r][c]) for r, c in keys),
        )
        out = tu_round(restriction)
        got = sum(costs[r][c] * out[(r, c)] for r, c in keys)
        # marginals preserved exactly
        for r in range(rows):
            assert sum(out[(r, c)] for c in range(cols)) == 1
        for c in range(cols):
            assert sum(out[(r, c)] for r in range(rows)) == demand[c]
        assert got == _transportation_optimum([1] * rows, demand, costs)
