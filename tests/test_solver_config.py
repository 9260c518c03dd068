import random

import pytest

from nearfeas import solver_config
from nearfeas.boxes import partition_config_columns
from nearfeas.generate import gen_config
from nearfeas.errors import PipelineInvariantError
from nearfeas.instances import ApproxParams, NFoldConfigInstance, instance_from_dict
from nearfeas.oracle import brute_force_config
from nearfeas.rationals import Rat
from nearfeas.results import SolveStatus
from nearfeas.solver_config import (
    build_mip4,
    normalize_configs,
    solve_nfold_config,
)
from stages import record_stages
from structure import nonintegral_support, rank, type_submatrices


def test_normalize_dedupes():
    inst = NFoldConfigInstance.build(
        [([[1]], [(0,), (1,)], [1]), ([[1]], [(2,)], [1])], [1]
    )
    norm = normalize_configs(inst)
    assert norm.tau == 2  # the largest distinct count
    assert norm.configs[1] == ((2,),)  # one entry per distinct configuration

    dup = NFoldConfigInstance.build([([[1]], [(1,), (1,), (2,)], [1])], [1])
    norm2 = normalize_configs(dup)
    assert norm2.configs[0] == ((1,), (2,))  # deduplicated

    empty = NFoldConfigInstance.build([([[1]], [], [1])], [1])
    assert normalize_configs(empty) is None


def test_value_matrix_columns():
    inst = NFoldConfigInstance.build([([[1, 2]], [(1, 1)], [1, 1])], [3])
    norm = normalize_configs(inst)
    assert norm.value_mats[0].column(0) == (Rat(3),)
    # rational rows: column phi is D p_phi, and the costs are w . p_phi
    inst = NFoldConfigInstance.build(
        [([["1/2", "2/3"], [0, "-1/4"]], [(1, 1), (3, 0), (0, 4)], ["1/3", 1])], [1, 1]
    )
    norm = normalize_configs(inst)
    assert norm.value_mats[0].row(0) == (Rat(7, 6), Rat(3, 2), Rat(8, 3))
    assert norm.value_mats[0].row(1) == (Rat(-1, 4), Rat(0), Rat(-1))
    assert norm.costs[0] == (Rat(4, 3), Rat(1), Rat(4))


def test_build_mip4_forced_single():
    inst = NFoldConfigInstance.build([([[1]], [(1,)], [1])], [1])
    norm = normalize_configs(inst)
    part = partition_config_columns(norm.value_mats, Rat(1, 2))
    model = build_mip4(norm, part, (Rat(0),))
    from nearfeas.branch_bound import solve_mip

    sol = solve_mip(model.mixed)
    assert sol.status.value == "optimal"
    assert sol.values[model.z[0][0]] == 1


def test_build_mip4_identical_blocks_share_type():
    inst = NFoldConfigInstance.build(
        [([[1]], [(0,), (1,)], [1]), ([[1]], [(0,), (1,)], [1])], [1]
    )
    norm = normalize_configs(inst)
    part = partition_config_columns(norm.value_mats, Rat(1, 2))
    assert len(part.type_groups) == 1
    model = build_mip4(norm, part, (Rat(0),))
    # s coupling rows, one linking row per column of the type, 2 selection rows
    assert model.mixed.lp.matrix.rows == 1 + 2 * 1 + 2
    assert len(model.mixed.integer_vars) == 2  # one occupied type x its 2 columns


def test_solve_contract_examples():
    inst = NFoldConfigInstance.build(
        [([[1]], [(0,), (1,)], [1]), ([[1]], [(0,), (1,)], [5])], [1]
    )
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.OK
    assert res.x == ((1,), (0,))
    assert res.objective == 1
    assert res.report.max_abs_residual == 0

    single = NFoldConfigInstance.build([([[1]], [(0,)], [1])], [0])
    res2 = solve_nfold_config(single, ApproxParams.build(Rat(1, 2)))
    assert res2.status == SolveStatus.OK and res2.report.max_abs_residual == 0

    gap = NFoldConfigInstance.build([([[1]], [(0,)], [1])], [10])
    res3 = solve_nfold_config(gap, ApproxParams.build(Rat(1, 10)))
    assert res3.status == SolveStatus.NEAR_FEASIBILITY_UNATTAINABLE
    assert res3.x == ((0,),)
    assert res3.report.max_abs_residual == 10
    assert not res3.report.within_bound


def test_solve_infeasible_empty_configs():
    inst = NFoldConfigInstance.build([([[1]], [], [1])], [0])
    res = solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    assert res.status == SolveStatus.INFEASIBLE


def test_exact_block_membership_and_guarantees():
    rng = random.Random(77)
    okc = 0
    with record_stages() as trace:
        for _ in range(20):
            inst = gen_config(
                rng,
                n_blocks=rng.randint(1, 5),
                s=rng.randint(1, 2),
                t=rng.randint(1, 2),
                kappa=2,
                max_configs=3,
            )
            eps = rng.choice((Rat(1), Rat(1, 2), Rat(1, 5)))
            res = solve_nfold_config(inst, ApproxParams.build(eps))
            delta = max(blk.D.inf_norm() for blk in inst.blocks)
            orc = brute_force_config(inst)
            assert res.status == SolveStatus.OK  # b0 feasible by construction
            assert res.report.max_abs_residual <= eps * delta
            # bit-identical membership
            for blk, xi in zip(inst.blocks, res.x):
                assert xi in blk.configs
            assert orc.feasible
            assert res.objective <= orc.optimum
            okc += 1
    assert okc == 20
    # fractional support and per-type rank bounds on every selection part
    assert trace.selection_optima
    for model, values in trace.selection_optima:
        s, tau = len(model.coupling), max(len(cols) for cols in model.z)
        assert len(nonintegral_support(values[: model.z[-1].stop])) <= s * (2 * tau + 1)
        for sub in type_submatrices(model, values):
            assert rank(sub) <= 2 * tau


def test_marginals_preserved_via_trace():
    rng = random.Random(5)
    with record_stages() as trace:
        for _ in range(10):
            inst = gen_config(rng, n_blocks=4, s=2, t=1, kappa=2, max_configs=3)
            solve_nfold_config(inst, ApproxParams.build(Rat(1, 2)))
    for restriction, frac_obj, rounded in trace.tu_calls:
        assert all(v in (0, 1) for v in rounded.values())
        got = sum(
            (c * rounded[k] for k, c in zip(restriction.keys, restriction.costs)),
            Rat(0),
        )
        assert got <= frac_obj


# gen_config(random.Random(1), n_blocks=3, s=1, t=2, kappa=2, max_configs=3):
# at epsilon 1/5 and delta 1 its first TU re-solve rounds blocks 0 and 1 of
# one type to
# {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
_TU_ROUNDED = {"format": 1, "kind": "nfold_config", "b0": ["5/2"], "blocks": [
    {"D": [["-1", "-3/2"]], "configs": [[1, 1], [-1, -2]], "weights": ["1/2", "0"]},
    {"D": [["1/2", "2"]], "configs": [[-2, -2], [-2, 2]], "weights": ["-3", "0"]},
    {"D": [["-2", "1"]], "configs": [[-1, 0], [-1, -1], [1, 0]], "weights": ["-3", "1"]},
]}


def test_a_rounding_that_moves_type_mass_is_rejected(monkeypatch):
    inst = instance_from_dict(_TU_ROUNDED)
    params = ApproxParams.build(Rat(1, 5), delta_override=Rat(1), refinement_limit=16)
    with record_stages() as trace:
        assert solve_nfold_config(inst, params).status == SolveStatus.OK
    assert trace.tu_calls[0][2] == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    tu_round = solver_config.tu_round

    def block_0_flipped(restriction, stats=None):
        # still one 0/1 selection per block, but both blocks now pick column 0
        rounded = tu_round(restriction, stats=stats)
        return {(i, phi): 1 - v if i == 0 else v for (i, phi), v in rounded.items()}

    monkeypatch.setattr(solver_config, "tu_round", block_0_flipped)
    with pytest.raises(PipelineInvariantError, match="type marginal not conserved"):
        solve_nfold_config(inst, params)


def test_the_tu_re_solve_is_counted_by_phase():
    # the TU re-solve is a cold solve: its pivots count in lp_pivots and in
    # the crash, phase-1 and phase-2 counters, as the root's do
    params = ApproxParams.build(Rat(1, 5), delta_override=Rat(1), refinement_limit=16)
    with record_stages() as trace:
        stats = solve_nfold_config(instance_from_dict(_TU_ROUNDED), params).stats
    assert trace.tu_calls
    phases = (stats.lp_crash_pivots, stats.lp_phase1_pivots, stats.lp_phase2_pivots)
    assert stats.lp_pivots == sum(phases) + stats.lp_dual_pivots
