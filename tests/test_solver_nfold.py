import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas import solver_nfold
from nearfeas.errors import EnumerationCapExceeded, RefinementLimitExceeded
from nearfeas.generate import gen_nonneg
from nearfeas.instances import ApproxParams, NFoldNonnegInstance
from nearfeas.oracle import brute_force_nfold
from nearfeas.rationals import ONE, Rat
from nearfeas.results import SolveStatus
from nearfeas.solver_nfold import (
    BIG,
    FIXED,
    SMALL,
    _major_configs,
    classify_and_split,
    enumerate_major_configs,
    normalize_blocks,
    solve_nfold,
)
from stages import record_stages
from structure import nonintegral_support, strictly_between_independent


def _inst(blocks, b0):
    return NFoldNonnegInstance.build(blocks, b0)


def test_normalize_case_i_fixes_variables():
    # b = (2, 0), A = [[1,1],[0,3]]: scale row 1 by 1/2, fix x2 = 0
    inst = _inst([([[1, 1], [0, 3]], [[1, 1]], [2, 0], [3, 3], [1, 1])], [3])
    (sb,) = normalize_blocks(inst)
    assert sb.fixed_zero == frozenset({1})
    assert sb.A.row(0) == (Rat(1, 2), Rat(1, 2))


def test_normalize_case_ii_drops_zero_row():
    inst = _inst([([[1, 0], [0, 0]], [[1, 1]], [1, 0], [3, 3], [1, 1])], [3])
    (sb,) = normalize_blocks(inst)
    assert sb.fixed_zero == frozenset()


def test_normalize_scales_to_one():
    inst = _inst([([[3]], [[1]], [3], [5], [1])], [3])
    (sb,) = normalize_blocks(inst)
    assert sb.A.row(0) == (ONE,)


def test_normalize_divides_each_row_by_its_rational_right_hand_side():
    # row h over b_h: 87/14 and 3/8 are not integers, 0 fixes the row's columns
    inst = _inst([([["3/14", 2], ["1/2", 0], [0, "5/3"]], [[1, 1]], ["87/14", 0, "3/8"],
                   [1, 3], [1, 1])], [3])
    (sb,) = normalize_blocks(inst)
    assert sb.fixed_zero == frozenset({0})
    assert [sb.A.row(h) for h in range(sb.A.rows)] == [
        (Rat(3, 87), Rat(28, 87)), (Rat(0), Rat(40, 9))
    ]


def test_classify_small_and_big():
    inst = _inst(
        [([["1/5", "1/2"], ["1/10", 0]], [[1, 1], [1, 1]], [1, 1], [9, 9], [1, 1])],
        [2, 2],
    )
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 4))
    assert split.kinds == (SMALL, BIG)
    assert split.lambdas == (2, 1)
    # observation: scaled column stays under 2 psi
    assert max(2 * v for v in sb.A.column(0)) <= 2 * Rat(1, 4)


def test_classify_zero_column_is_big():
    # column 0 is zero in both surviving rows, so it has no local weight: it is
    # big (lambda 1, its whole range major), and its values are enumerated
    inst = _inst([([[0, "1/5"], [0, "1/10"]], [[1, 1]], [1, 1], [3, 9], [1, 1])], [1])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 4))
    assert split.kinds == (BIG, SMALL)
    assert split.lambdas == (1, 2)
    assert (split.major_ub[0], split.minor_ub[0]) == (3, 0)


def test_classify_fixed_column():
    inst = _inst([([[1, 1], [0, 3]], [[1, 1]], [2, 0], [3, 3], [1, 1])], [3])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 4))
    assert split.kinds[1] == FIXED


def test_enumerate_window_example():
    # scaled big column (1/2), window [3/4, 5/4]: only x = 2 lands inside
    inst = _inst([([["1/2"]], [[1]], [1], [9], [1])], [2])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 8))
    cfgs = enumerate_major_configs(sb, split, (Rat(3, 4), Rat(5, 4)), 1000)
    assert cfgs == ((2,),)


def test_enumerate_empty_window():
    inst = _inst([([[2]], [[1]], [1], [0], [1])], [2])  # u = 0 cannot reach 1
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 8))
    assert enumerate_major_configs(sb, split, (Rat(3, 4), Rat(5, 4)), 1000) == ()


def test_enumeration_leaves_no_reference_cycle():
    """The recursion is freed by reference counting alone."""
    inst = _inst([([["1/2"]], [[1]], [1], [9], [1])], [2])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 8))
    gc.collect()
    gc.disable()
    try:
        assert enumerate_major_configs(sb, split, (Rat(3, 4), Rat(5, 4)), 1000) == ((2,),)
        assert gc.collect() == 0
    finally:
        gc.enable()


_WINDOW_ENDS = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6, 8]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda rows: st.integers(1, 3).flatmap(
            lambda t: st.tuples(
                st.lists(
                    st.lists(
                        st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 5])),
                        min_size=t,
                        max_size=t,
                    ),
                    min_size=rows,
                    max_size=rows,
                ),
                st.lists(st.integers(0, 4), min_size=t, max_size=t),
                st.lists(st.integers(1, 3), min_size=rows, max_size=rows),
            )
        )
    ),
    st.sampled_from([Rat(1, 8), Rat(1, 4), Rat(1, 2)]),
    _WINDOW_ENDS,
    _WINDOW_ENDS,
)
def test_enumeration_window_matches_a_fraction_reference(data, psi, a, b):
    """The integer window bounds per row select exactly the major vectors
    whose lambda-scaled local sums, in plain Fractions, lie in the window."""
    A, u, bi = data
    lo, hi = min(a, b) / 4, max(a, b) / 4
    t = len(u)
    inst = _inst([(A, [[1] * t], bi, u, [1] * t)], [1])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, psi)
    rows = [sb.A.row(h) for h in range(sb.A.rows)]
    expected = tuple(
        point
        for point in itertools.product(*(range(ub + 1) for ub in split.major_ub))
        if all(
            lo <= sum((lam * v * p for lam, v, p in zip(split.lambdas, row, point)), Fraction(0)) <= hi
            for row in rows
        )
    )
    assert enumerate_major_configs(sb, split, (lo, hi), 10**6) == expected


def test_enumerate_exact_window_matches_direct():
    rng = random.Random(3)
    for _ in range(20):
        t = rng.randint(1, 3)
        A = [[Rat(rng.randint(0, 3)) for _ in range(t)]]
        if all(v == 0 for v in A[0]):
            continue
        u = [rng.randint(0, 3) for _ in range(t)]
        b = rng.randint(1, 6)
        if any(A[0][j] == 0 for j in range(t)):
            continue  # zero columns are rejected by design
        inst = _inst([(A, [[1] * t], [b], u, [0] * t)], [1])
        (sb,) = normalize_blocks(inst)
        split = classify_and_split(sb, Rat(1, 100))
        cfgs = enumerate_major_configs(sb, split, (ONE, ONE), 100000)
        direct = []
        import itertools

        for point in itertools.product(*(range(ui + 1) for ui in u)):
            if sum((A[0][j] * point[j] for j in range(t)), Rat(0)) == b:
                direct.append(point)
        assert list(cfgs) == direct


def test_decomposition_identity():
    # lambda * floor(x / lambda) + (x mod lambda) = x for the split bounds
    inst = _inst([([["1/20", 1]], [[1, 2]], [1], [10, 1], [1, 1])], [2])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(1, 16))
    lam = split.lambdas[0]
    assert split.kinds[0] == SMALL
    for x in range(sb.block.u[0] + 1):
        major, minor = divmod(x, lam)
        assert major <= split.major_ub[0]
        assert minor <= split.minor_ub[0]
        assert lam * major + minor == x


def test_case1_contract_examples():
    inst = _inst([([[1]], [[1]], [1], [5], [1])], [2])
    res = solve_nfold(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.NEAR_FEASIBILITY_UNATTAINABLE
    assert res.x == ((1,),)
    assert res.report.max_abs_residual == 1
    assert not res.report.within_bound

    inst2 = _inst(
        [([[1]], [[1]], [1], [5], [1]), ([[1]], [[1]], [1], [5], [1])], [2]
    )
    res2 = solve_nfold(inst2, ApproxParams.build(Rat(1, 2)))
    assert res2.status == SolveStatus.OK
    assert res2.x == ((1,), (1,))
    assert res2.objective == 2
    assert res2.report.mode == "multiplicative"
    assert res2.report.within_bound


def test_case1_threshold_boundary():
    inst = _inst([([["1/10", 1]], [[1, 1]], [1], [10, 1], [1, 1])], [1])
    (sb,) = normalize_blocks(inst)
    split = classify_and_split(sb, Rat(4, 5) / (4 * 2))
    assert split.kinds == (BIG, BIG)
    res = solve_nfold(inst, ApproxParams.build(Rat(4, 5)))
    assert "case1" in res.notes
    assert res.status == SolveStatus.OK


def test_case2_small_column_end_to_end():
    inst = _inst([([["1/20", 1]], [[1, 2]], [1], [10, 1], [1, 1])], [2])
    res = solve_nfold(inst, ApproxParams.build(Rat(1, 2)))
    assert "case2" in res.notes
    assert res.status == SolveStatus.OK
    assert res.report.within_bound
    orc = brute_force_nfold(inst)
    assert orc.feasible and res.objective <= orc.optimum


def test_negative_rhs_infeasible():
    inst = _inst([([[1]], [[1]], [-1], [3], [1])], [1])
    res = solve_nfold(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.INFEASIBLE


def test_clamp_repair_fires_and_passes():
    # small column lambda=2 with u=2: the split encoding reaches 3, the clamp
    # caps it at u, and the multiplicative check still accepts
    inst = _inst([([["1/20", 1]], [[5, 0]], [1], [2, 1], [0, 0])], [15])
    with record_stages() as trace:
        res = solve_nfold(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    assert res.x == ((2, 1),)
    assert trace.clamps
    assert res.report.within_bound


def _clamped_inst():
    """Block 2's first attempt clamps and misses the window."""
    return _inst(
        [
            ([["5/2", "1/13"]], [[2, "3/2"]], ["69/26"], [1, 2], [1, 3]),
            ([["5/2", "1/2"]], [[1, 0]], [0], [1, 0], [0, 3]),
            ([[3, "1/24"]], [[0, 3]], ["37/12"], [1, 2], [1, 2]),
        ],
        [11],
    )


def test_a_clamped_rejection_halves_psi_and_rebuilds_the_majors():
    # the first attempt clamps block 2 and misses the window; halving psi
    # re-splits the blocks, and the second model must be built over the new
    # major configurations and their value matrices
    inst = _clamped_inst()
    with record_stages() as trace:
        res = solve_nfold(inst, ApproxParams.build(Rat(1, 5)))
    assert trace.clamps == [((2, 1, 1),)]
    assert res.status == SolveStatus.OK and res.refinements == 1
    assert res.x == ((1, 2), (0, 0), (1, 2))
    assert res.objective == brute_force_nfold(inst).optimum == 12


def test_a_psi_refinement_that_leaves_a_block_no_majors_is_infeasible(monkeypatch):
    # no instance is known to reach this exit, so the enumeration after the
    # clamped rejection is made to find no major configurations
    calls = []

    def none_after_the_first(*args):
        calls.append(args)
        return _major_configs(*args) if len(calls) == 1 else None

    monkeypatch.setattr(solver_nfold, "_major_configs", none_after_the_first)
    res = solve_nfold(_clamped_inst(), ApproxParams.build(Rat(1, 5)))
    assert res.status == SolveStatus.INFEASIBLE
    assert res.notes == ("case2", "no major configurations after psi refinement")
    # the second attempt ends at its own width: half the closed-form 1/140
    assert (res.refinements, res.delta_used) == (1, Rat(1, 280))
    calls.clear()
    with pytest.raises(RefinementLimitExceeded):
        solve_nfold(_clamped_inst(), ApproxParams.build(Rat(1, 5), refinement_limit=0))


def test_fractional_minors_are_rounded_by_group():
    # single-configuration blocks pin the selections integral, so hitting the
    # coupling target between the integral lattice points forces the relaxed
    # minor variables to split fractionally inside one shared box; the greedy
    # conserves the group sum, and refinement later certifies the instance
    # infeasible (the local rows admit only x = 0 exactly)
    inst = _inst(
        [
            ([["1/500", 1]], [[1, 0]], [1], [1, 1], [1, 0]),
            ([["1/500", 1]], [[1, 0]], [1], [1, 1], [1, 0]),
            ([["1/500", 1]], [["4/3", 0]], [1], [10, 1], [1, 0]),
        ],
        ["29/6"],
    )
    with record_stages() as trace:
        res = solve_nfold(
            inst,
            ApproxParams.build(Rat(1, 50), delta_override=Rat(1), refinement_limit=16),
        )
    assert res.status == SolveStatus.INFEASIBLE
    assert any(p.members for p in trace.group_plans)


def test_guarantees_on_random_instances():
    rng = random.Random(55)
    case2_runs = minor_runs = 0
    with record_stages() as trace:
        for k in range(40):
            inst = gen_nonneg(
                rng,
                n_blocks=rng.randint(1, 4),
                s_a=rng.randint(1, 2),
                s_d=rng.randint(1, 2),
                t=rng.randint(1, 2),
                u_max=3,
                # the later instances shrink local columns, so case 2 runs too
                small_bias=0.5 if k >= 15 else 0.0,
            )
            eps = rng.choice((Rat(1), Rat(1, 2), Rat(1, 5)))
            recorded = len(trace.selection_optima)
            restricted = len(trace.grouped_optima)
            res = solve_nfold(inst, ApproxParams.build(eps))
            assert res.status == SolveStatus.OK
            if "case2" in res.notes:
                # case 2 runs the same selection stage as the config pipeline, and
                # the same grouped rounding stage as the general one on the minor
                # variables of its first model, if it has any
                case2_runs += 1
                assert len(trace.selection_optima) > recorded
                t = inst.blocks[0].A.cols
                splits = [classify_and_split(sb, eps / (4 * t)) for sb in normalize_blocks(inst)]
                if any(kind == SMALL and ub for sp in splits for kind, ub in zip(sp.kinds, sp.minor_ub)):
                    minor_runs += 1
                    assert len(trace.grouped_optima) > restricted
            # multiplicative guarantee on the original data, exact
            for blk, xi in zip(inst.blocks, res.x):
                ax = blk.A.matvec(xi)
                for got, ref in zip(ax, blk.bi):
                    assert (1 - eps) * ref <= got <= (1 + eps) * ref
            total = [Rat(0)] * len(inst.b0)
            for blk, xi in zip(inst.blocks, res.x):
                contrib = blk.D.matvec(xi)
                total = [a + c for a, c in zip(total, contrib)]
            for got, ref in zip(total, inst.b0):
                assert (1 - eps) * ref <= got <= (1 + eps) * ref
            orc = brute_force_nfold(inst)
            assert orc.feasible
            assert res.objective <= orc.optimum
            # bounds respected
            for blk, xi in zip(inst.blocks, res.x):
                assert all(0 <= v <= ub for v, ub in zip(xi, blk.u))
    assert case2_runs and minor_runs
    for model, values in trace.selection_optima:
        s, tau = len(model.coupling), max(len(cols) for cols in model.z)
        assert len(nonintegral_support(values[: model.z[-1].stop])) <= s * (2 * tau + 1)
    for model, values in trace.grouped_optima:
        x = values[model.x.start : model.x.stop]
        assert len(nonintegral_support(x)) <= 2 * len(model.coupling)
        assert strictly_between_independent(model.mixed.lp, values, model.x)


def test_build_mip6_no_small_columns_has_no_minors():
    from nearfeas.solver_nfold import build_mip6, major_values

    inst = _inst(
        [([[1]], [[1]], [1], [3], [1]), ([[1]], [[2]], [1], [3], [1])], [3]
    )
    eps = Rat(1, 2)
    sblocks = normalize_blocks(inst)
    splits = [classify_and_split(sb, eps / 4) for sb in sblocks]
    assert all(k == BIG for sp in splits for k in sp.kinds)
    cfgs = [
        enumerate_major_configs(sb, sp, (1 - eps / 2, 1 + eps / 2), 10**4)
        for sb, sp in zip(sblocks, splits)
    ]
    values = major_values(sblocks, splits, cfgs)
    model, minor_keys = build_mip6(
        inst, sblocks, splits, values, Rat(1, 8), Rat(1, 8), (Rat(1),), eps
    )
    assert minor_keys == ()
    assert model.part is None
    # integer variables: one count per column of each occupied type only
    widths = sum(len(key) for key in model.config_part.type_groups)
    assert len(model.mixed.integer_vars) == widths


def test_build_mip6_integer_variable_count():
    from nearfeas.solver_nfold import build_mip6, major_values

    inst = _inst(
        [
            ([["1/20", 1]], [[1, 2]], [1], [10, 1], [1, 1]),
            ([["1/20", 1]], [[2, 1]], [1], [10, 1], [1, 1]),
        ],
        [3],
    )
    eps = Rat(1, 2)
    sblocks = normalize_blocks(inst)
    splits = [classify_and_split(sb, eps / 8) for sb in sblocks]
    cfgs = [
        enumerate_major_configs(sb, sp, (1 - eps / 2, 1 + eps / 2), 10**4)
        for sb, sp in zip(sblocks, splits)
    ]
    values = major_values(sblocks, splits, cfgs)
    model, _ = build_mip6(
        inst, sblocks, splits, values, Rat(1, 8), Rat(1, 8), (Rat(1),), eps
    )
    widths = sum(len(key) for key in model.config_part.type_groups)
    boxes = len(model.part.groups)
    assert len(model.mixed.integer_vars) == widths + boxes
    # one small column with lambda = 2, u = 10: bounds as split
    assert splits[0].major_ub[0] == 5 and splits[0].minor_ub[0] == 1


def test_config_cap_is_a_resource_limit():
    # the instance `nearfeas gen --kind nfold-nonneg --seed 3` writes
    inst = gen_nonneg(random.Random(3), n_blocks=4, s_a=2, s_d=2, t=2)
    assert solve_nfold(inst, ApproxParams.build(Rat(1, 2))).status == SolveStatus.OK
    with pytest.raises(EnumerationCapExceeded, match="more than 1 major configurations"):
        solve_nfold(inst, ApproxParams.build(Rat(1, 2), config_cap=1))
