"""Delta-scale covariance of the three pipelines.

Box widths are delta * Delta.  Scaling the coupling rows ((H, b), or the
D^i and b0) by lambda > 0 scales Delta and every box by lambda, so the
partitions are the same, the mixed model is a row and column scaling of the
old one with the same optimum, and an additive bound scales by lambda (a
multiplicative one is epsilon itself).  Simplex paths are not
scale-invariant (phase 1 weighs every row by its scale), so reports may
differ beyond these three facts.  lambda = -1 is no symmetry: box floors are
not odd functions.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas import solver_config, solver_general, solver_nfold
from nearfeas.errors import ResourceLimitError
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import ADDITIVE, ApproxParams
from nearfeas.linalg import Matrix
from nearfeas.rationals import Rat

LAMBDAS = st.sampled_from([Rat(3), Rat(1000), Rat(7, 2)])
MODULES = (solver_general, solver_config, solver_nfold)
PARAMS = ApproxParams.build(Rat(1, 2))


def _scaled(mat, lam):
    return Matrix.from_rows([lam * v for v in mat.row(i)] for i in range(mat.rows))


def _scale_general(inst, lam):
    return replace(inst, H=_scaled(inst.H, lam), b=tuple(lam * v for v in inst.b))


def _scale_blocks(inst, lam):
    blocks = tuple(replace(blk, D=_scaled(blk.D, lam)) for blk in inst.blocks)
    return replace(inst, blocks=blocks, b0=tuple(lam * v for v in inst.b0))


def _first_attempt(solve, inst):
    """The partitions built up to the first mixed solve, that solve's status
    and objective, and the result (None if a resource limit ended it)."""
    seen = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not any(kind == "mip" for kind, *_ in seen):
                if name == "solve_mip":
                    seen.append(("mip", out.status, out.objective_value))
                else:
                    groups = out.groups if name == "partition_columns" else out.type_groups
                    seen.append((name, groups))
            return out

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for mod in MODULES:
            for name in ("solve_mip", "partition_columns", "partition_config_columns"):
                if hasattr(mod, name):
                    mp.setattr(mod, name, recording(name, getattr(mod, name)))
        try:
            result = solve(inst, PARAMS)
        except ResourceLimitError:
            result = None
    return seen, result


def _check(solve, inst, scaled, lam):
    seen, res = _first_attempt(solve, inst)
    seen_scaled, res_scaled = _first_attempt(solve, scaled)
    assert any(kind == "mip" for kind, *_ in seen)
    assert seen_scaled == seen
    if res is None or res_scaled is None or res.report is None or res_scaled.report is None:
        return
    if res.report.mode == ADDITIVE:
        assert res_scaled.report.bound == lam * res.report.bound
    else:
        assert res_scaled.report.bound == res.report.bound == PARAMS.epsilon


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), lam=LAMBDAS)
def test_general_scale_covariance(seed, lam):
    rng = random.Random(seed)
    inst = gen_general(rng, m=rng.randint(1, 2), n=rng.randint(2, 6))
    _check(solver_general.solve_general, inst, _scale_general(inst, lam), lam)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), lam=LAMBDAS)
def test_config_scale_covariance(seed, lam):
    rng = random.Random(seed)
    inst = gen_config(rng, n_blocks=rng.randint(1, 4))
    _check(solver_config.solve_nfold_config, inst, _scale_blocks(inst, lam), lam)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), lam=LAMBDAS)
def test_nonneg_coupling_scale_covariance(seed, lam):
    rng = random.Random(seed)
    inst = gen_nonneg(rng, n_blocks=rng.randint(1, 3), small_bias=0.5)
    _check(solver_nfold.solve_nfold, inst, _scale_blocks(inst, lam), lam)
