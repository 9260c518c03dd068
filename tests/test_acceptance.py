"""Acceptance suite: every guarantee checked exactly, at desk scale.

Each criterion prints one PASS line (run with -s to see them); any violation
fails the test with a FAIL line.  All randomness is seeded, so reruns are
byte-identical (criterion 10 asserts this).
"""

import itertools
import json
import random

import pytest

from nearfeas.apps import scheduling_to_config
from nearfeas.branch_bound import MixedModel, solve_mip
from nearfeas.cli import _result_report
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import ApproxParams
from nearfeas.oracle import brute_force_config, brute_force_general, brute_force_nfold
from nearfeas.rationals import Rat
from nearfeas.results import SolveStatus
from nearfeas.simplex import LinearProgram, LPStatus, solve_lp_vertex
from nearfeas.solver_config import solve_nfold_config
from nearfeas.solver_general import solve_general
from nearfeas.solver_nfold import solve_nfold
from stages import record_stages
from structure import nonintegral_support, rank, strictly_between_independent, type_submatrices
from test_simplex import dense_lp

EPSILONS = (Rat(1), Rat(1, 2), Rat(1, 5))


def _pass(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def _fail(k, message):
    pytest.fail(f"ACCEPTANCE {k}: FAIL - {message}")


# ---------------------------------------------------------------------------
# shared workloads (run once, reused by the structural criteria)


@pytest.fixture(scope="module")
def general_runs():
    rng = random.Random(2024_01)
    runs = []
    with record_stages() as trace:
        count = 0
        while count < 200:
            inst = gen_general(
                rng,
                m=rng.randint(1, 3),
                n=rng.randint(2, 10),
                delta_max=5,
                bound_max=3,
                box_cap=30_000,
                feasible=rng.random() < 0.9,
            )
            orc = brute_force_general(inst, cap=200_000)
            if not orc.feasible:
                continue
            eps = EPSILONS[count % 3]
            res = solve_general(inst, ApproxParams.build(eps))
            runs.append((inst, eps, res, orc))
            # a coarse-width pass on a subsample keeps the rounding machinery
            # honestly exercised (wide boxes produce fractional vertices)
            if count % 5 == 0:
                seps = Rat(1, 5)
                stress = solve_general(
                    inst,
                    ApproxParams.build(seps, delta_override=Rat(1), refinement_limit=16),
                )
                assert stress.status == SolveStatus.OK
                assert stress.report.max_abs_residual <= seps * inst.H.inf_norm()
                assert stress.objective <= orc.optimum
            count += 1
    return runs, trace


@pytest.fixture(scope="module")
def config_runs():
    rng = random.Random(2024_02)
    runs = []
    with record_stages() as trace:
        for count in range(100):
            inst = gen_config(
                rng,
                n_blocks=rng.randint(1, 8),
                s=rng.randint(1, 2),
                t=rng.randint(1, 2),
                kappa=2,
                max_configs=4,
            )
            orc = brute_force_config(inst, cap=200_000)
            assert orc.feasible  # b0 is generated from a draw
            eps = EPSILONS[count % 3]
            res = solve_nfold_config(inst, ApproxParams.build(eps))
            runs.append((inst, eps, res, orc))
            if count % 3 == 0:
                seps = Rat(1, 5)  # tight slack makes coarse boxes bind
                stress = solve_nfold_config(
                    inst,
                    ApproxParams.build(seps, delta_override=Rat(1), refinement_limit=16),
                )
                assert stress.status == SolveStatus.OK
                delta = max(blk.D.inf_norm() for blk in inst.blocks)
                assert stress.report.max_abs_residual <= seps * delta
                assert stress.objective <= orc.optimum
    return runs, trace


@pytest.fixture(scope="module")
def nfold_runs():
    rng = random.Random(2024_03)
    runs = []
    with record_stages() as trace:
        for count in range(50):
            inst = gen_nonneg(
                rng,
                n_blocks=rng.randint(1, 5),
                s_a=rng.randint(1, 2),
                s_d=rng.randint(1, 2),
                t=rng.randint(1, 2),
                u_max=3,
                small_bias=0.5,
            )
            orc = brute_force_nfold(inst, cap=2_000_000)
            assert orc.feasible
            eps = EPSILONS[count % 3]
            res = solve_nfold(inst, ApproxParams.build(eps))
            runs.append((inst, eps, res, orc))
    return runs, trace


# ---------------------------------------------------------------------------


def test_criterion_1_general_guarantee(general_runs):
    runs, _ = general_runs
    for inst, eps, res, orc in runs:
        bound = eps * inst.H.inf_norm()
        if res.status != SolveStatus.OK:
            _fail(1, f"status {res.status} on a feasible instance")
        if res.objective > orc.optimum:
            _fail(1, f"objective {res.objective} above optimum {orc.optimum}")
        if res.report.max_abs_residual > bound:
            _fail(1, f"violation {res.report.max_abs_residual} above {bound}")
    _pass(1, f"{len(runs)} feasible instances: objective <= OPT and violation <= eps*Delta, exactly")


def test_criterion_2_claim1(general_runs):
    _, trace = general_runs
    if not trace.grouped_optima:
        _fail(2, "no grouped parts were rounded")
    for model, values in trace.grouped_optima:
        m = len(model.coupling)
        n = len(nonintegral_support(values[model.x.start : model.x.stop]))
        if n > 2 * m:
            _fail(2, f"fractional support {n} exceeds 2m = {2 * m}")
    _pass(2, f"{len(trace.grouped_optima)} grouped parts, all with <= 2m fractional entries")


def test_criterion_3_vertex_nonsingularity(general_runs, config_runs):
    _, gtrace = general_runs
    _, ctrace = config_runs
    checked = 0
    for model, values in gtrace.grouped_optima:
        if not strictly_between_independent(model.mixed.lp, values, model.x):
            _fail(3, "singular strictly-between column set on a grouped part")
        checked += 1
    for model, values in ctrace.selection_optima:
        z = range(model.z[-1].stop)
        if not strictly_between_independent(model.mixed.lp, values, z):
            _fail(3, "singular strictly-between column set on a selection part")
        checked += 1
    _pass(3, f"{checked} optimal vertices, strictly-between columns always independent")


def test_criterion_4_config_guarantee(config_runs):
    runs, trace = config_runs
    for inst, eps, res, orc in runs:
        delta = max(blk.D.inf_norm() for blk in inst.blocks)
        if res.status != SolveStatus.OK:
            _fail(4, f"status {res.status} on a feasible instance")
        for blk, xi in zip(inst.blocks, res.x):
            if xi not in blk.configs:
                _fail(4, "returned block vector is not a member of its config set")
        if res.objective > orc.optimum:
            _fail(4, f"objective {res.objective} above optimum {orc.optimum}")
        if res.report.max_abs_residual > eps * delta:
            _fail(4, "violation above eps*Delta")
    for model, values in trace.selection_optima:
        s, tau = len(model.coupling), max(len(cols) for cols in model.z)
        if len(nonintegral_support(values[: model.z[-1].stop])) > s * (2 * tau + 1):
            _fail(4, "selection part fractional support exceeds s(2tau+1)")
    _pass(4, f"{len(runs)} instances: membership, objective, violation, support bounds all exact")


def test_criterion_5_tu_rounding(config_runs):
    from nearfeas.rounding import AssignmentRestriction, tu_round

    _, trace = config_runs
    if not trace.tu_calls:
        _fail(5, "no TU re-solve was exercised by the pipeline workload")
    for restriction, frac_obj, rounded in trace.tu_calls:
        if any(v not in (0, 1) for v in rounded.values()):
            _fail(5, "non 0/1 entry from the TU re-solve")
        rounded_obj = sum(
            (c * rounded[k] for k, c in zip(restriction.keys, restriction.costs)),
            Rat(0),
        )
        if rounded_obj > frac_obj:
            _fail(5, "restricted objective increased by rounding")
        for side, of in (("left", restriction.left_of), ("right", restriction.right_of)):
            rhs = restriction.left_rhs if side == "left" else restriction.right_rhs
            sums = [Rat(0)] * len(rhs)
            for k, r in zip(restriction.keys, of):
                sums[r] = sums[r] + rounded[k]
            if tuple(sums) != tuple(rhs):
                _fail(5, f"{side} marginals not preserved")

    # 50 random small restrictions against brute-force transportation optima
    rng = random.Random(2024_05)
    for _ in range(50):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        demand = [0] * cols
        for _ in range(rows):
            demand[rng.randrange(cols)] += 1
        costs = [[Rat(rng.randint(0, 5)) for _ in range(cols)] for _ in range(rows)]
        keys = tuple((r, c) for r in range(rows) for c in range(cols))
        restriction = AssignmentRestriction(
            keys,
            tuple(r for r, c in keys),
            tuple(c for r, c in keys),
            tuple(Rat(1) for _ in range(rows)),
            tuple(Rat(d) for d in demand),
            tuple(costs[r][c] for r, c in keys),
        )
        out = tu_round(restriction)
        got = sum((costs[r][c] * out[(r, c)] for r, c in keys), Rat(0))
        best = None
        for assign in itertools.product(range(cols), repeat=rows):
            if all(sum(1 for a in assign if a == c) == demand[c] for c in range(cols)):
                val = sum((costs[r][assign[r]] for r in range(rows)), Rat(0))
                if best is None or val < best:
                    best = val
        if got != best:
            _fail(5, f"TU objective {got} differs from brute force {best}")
    _pass(5, f"{len(trace.tu_calls)} pipeline TU calls + 50 random restrictions, all optimal and exact")


def test_criterion_6_rank_bounds(config_runs):
    _, trace = config_runs
    checked = 0
    for model, values in trace.selection_optima:
        tau = max(len(cols) for cols in model.z)
        for sub in type_submatrices(model, values):
            if rank(sub) > 2 * tau:
                _fail(6, f"type-group fractional submatrix rank exceeds 2tau = {2 * tau}")
            checked += 1
    if checked == 0:
        _fail(6, "no fractional type-group submatrices were sampled")
    _pass(6, f"{checked} type-group submatrices, rank always <= 2tau")


def test_criterion_7_block_guarantee(nfold_runs):
    runs, _ = nfold_runs
    for inst, eps, res, orc in runs:
        if res.status != SolveStatus.OK:
            _fail(7, f"status {res.status} on a feasible instance")
        if res.objective > orc.optimum:
            _fail(7, f"objective {res.objective} above optimum {orc.optimum}")
        total = [Rat(0)] * len(inst.b0)
        for blk, xi in zip(inst.blocks, res.x):
            ax = blk.A.matvec(xi)
            for got, ref in zip(ax, blk.bi):
                if not (1 - eps) * ref <= got <= (1 + eps) * ref:
                    _fail(7, "local constraint outside the multiplicative window")
            contrib = blk.D.matvec(xi)
            total = [a + c for a, c in zip(total, contrib)]
        for got, ref in zip(total, inst.b0):
            if not (1 - eps) * ref <= got <= (1 + eps) * ref:
                _fail(7, "coupling constraint outside the multiplicative window")
    _pass(7, f"{len(runs)} feasible instances: multiplicative windows and objective, exactly")


def test_criterion_8_scheduling():
    rng = random.Random(2024_08)
    eps = Rat(1, 2)
    for count in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        p = [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)]
        loads = [0] * m
        for i in range(n):
            h = rng.randrange(m)
            loads[h] += p[i][h]
        cmax = max(max(loads), 1)
        inst, decode = scheduling_to_config(p, cmax)
        res = solve_nfold_config(inst, ApproxParams.build(eps))
        if res.status != SolveStatus.OK:
            _fail(8, f"status {res.status} on a feasible schedule")
        d = decode(res.x)
        maxp = max(v for row in p for v in row)
        if d.makespan > cmax + eps * maxp:
            _fail(8, f"makespan {d.makespan} above {cmax} + eps*{maxp}")
    _pass(8, "30 feasible schedules, makespan <= Cmax + eps*max p, exactly")


def test_criterion_9_mip_oracle_equivalence():
    rng = random.Random(2024_09)
    count = 0
    while count < 100:
        m = rng.randint(1, 2)
        n = rng.randint(2, 5)
        A = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        lower = [Rat(rng.randint(-2, 0)) for _ in range(n)]
        upper = [lo + rng.randint(0, 4) for lo in lower]
        if rng.random() < 0.7:
            x0 = [rng.randint(int(lo), int(up)) for lo, up in zip(lower, upper)]
            b = [sum((A[i][j] * x0[j] for j in range(n)), Rat(0)) for i in range(m)]
        else:
            b = [Rat(rng.randint(-3, 3)) for _ in range(m)]
        obj = [Rat(rng.randint(-3, 3)) for _ in range(n)]
        lp = dense_lp(
            A, tuple(b), tuple(lower), tuple(upper), tuple(obj)
        )
        ivars = frozenset(rng.sample(range(n), rng.randint(0, min(4, n))))
        model = MixedModel(lp, ivars)
        got = solve_mip(model)
        best = None
        ranges = [range(int(lp.lower[j]), int(lp.upper[j]) + 1) for j in sorted(ivars)]
        for point in itertools.product(*ranges):
            lo = list(lp.lower)
            up = list(lp.upper)
            for j, v in zip(sorted(ivars), point):
                lo[j] = Rat(v)
                up[j] = Rat(v)
            sol = solve_lp_vertex(LinearProgram(lp.matrix, lp.rhs, tuple(lo), tuple(up), lp.objective))
            if sol.status == LPStatus.OPTIMAL and (best is None or sol.objective_value < best):
                best = sol.objective_value
        if best is None:
            if got.status.value != "infeasible":
                _fail(9, "solver found a solution where enumeration found none")
        else:
            if got.status.value != "optimal" or got.objective_value != best:
                _fail(9, f"objective {got.objective_value} differs from enumeration {best}")
        count += 1
    _pass(9, "100 mixed models, objective equals exhaustive enumeration, exactly")


def test_criterion_10_determinism():
    def snapshot(seed_gen, seed_cfg):
        rng = random.Random(seed_gen)
        reports = []
        for k in range(10):
            inst = gen_general(rng, m=rng.randint(1, 2), n=rng.randint(2, 6))
            res = solve_general(inst, ApproxParams.build(EPSILONS[k % 3]))
            reports.append(_result_report("general", EPSILONS[k % 3], res))
        rng2 = random.Random(seed_cfg)
        for k in range(10):
            inst = gen_config(rng2, n_blocks=rng2.randint(1, 5))
            res = solve_nfold_config(inst, ApproxParams.build(EPSILONS[k % 3]))
            reports.append(_result_report("nfold_config", EPSILONS[k % 3], res))
        return json.dumps(reports, sort_keys=True)

    a = snapshot(2024_10, 2024_11)
    b = snapshot(2024_10, 2024_11)
    if a.encode() != b.encode():
        _fail(10, "reruns with identical seeds produced different reports")
    _pass(10, "20 rerun reports byte-identical")
