"""Pinned layouts of the coupled mixed models.

For one small instance per pipeline (nonnegative n-fold in case 2, with
minor variables), every mixed model handed to branch-and-bound is recorded
in call order; the pipelines build no other LP, since each rounds its parts
straight off the mixed optimum, so the only LP solved cold is each
branch-and-bound root.  A model's shape, its integer variables and
a SHA-256 of its exact entries, right-hand side, bounds and objective are
compared with pinned values, so a change of column or row order, or of any
entry, bound or cost, fails here and not only in a benchmark report.
"""

import contextlib
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas import solver_config, solver_general, solver_nfold
from nearfeas.boxes import partition_config_columns
from nearfeas.branch_bound import solve_mip
from nearfeas.errors import ResourceLimitError
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import ApproxParams, instance_from_dict
from nearfeas.rationals import Rat
from nearfeas.simplex import Tableau
from test_simplex import dense_rows, int_rows

INSTANCES = {
    "general": {
        "format": 1,
        "kind": "general",
        "H": [["1", "1", "2", "2", "3"], ["1", "1", "1/2", "1/2", "-1"]],
        "b": ["5", "3/2"],
        "w": ["1", "2", "-1", "1", "-1/2"],
        "l": [-1, -1, -1, 0, 0],
        "u": [2, 2, 1, 1, 1],
    },
    "nfold-config": {
        "format": 1,
        "kind": "nfold_config",
        "blocks": [
            {"D": [["0", "1"]], "configs": [[2, -2]], "weights": ["-1", "1/2"]},
            {"D": [["1/2", "2"]], "configs": [[-2, -1], [2, -2], [2, 2]], "weights": ["-1/2", "-3"]},
            {"D": [["0", "5/2"]], "configs": [[-1, -2], [2, 2], [-1, 0]], "weights": ["-3", "-3"]},
        ],
        "b0": ["-5"],
    },
    "nfold": {
        "format": 1,
        "kind": "nfold_nonneg",
        "blocks": [
            {"A": [["3/14", "2"]], "D": [["3", "3/2"], ["3", "3"]], "bi": ["87/14"], "u": [1, 3], "w": ["1", "1"]},
            {"A": [["1/12", "5/2"]], "D": [["3", "2"], ["3", "0"]], "bi": ["8/3"], "u": [2, 1], "w": ["2", "1"]},
            {"A": [["3/16", "1"]], "D": [["3/2", "0"], ["3", "1"]], "bi": ["3/8"], "u": [2, 0], "w": ["0", "0"]},
        ],
        "b0": ["37/2", "24"],
    },
}

SOLVERS = {
    "general": solver_general.solve_general,
    "nfold-config": solver_config.solve_nfold_config,
    "nfold": solver_nfold.solve_nfold,
}


def _digest(lp):
    """The SHA-256 of the model rendered densely: each row's entries as
    rationals (its integers over its scale), then the right-hand side, bounds
    and objective."""
    h = hashlib.sha256()
    entries = [v for row in dense_rows(lp.matrix) for v in row]
    for part in (entries, lp.rhs, lp.lower, lp.upper, lp.objective):
        h.update(" ".join(map(str, part)).encode() + b";")
    return h.hexdigest()


def _layouts(monkeypatch, kind):
    """(rows, cols, integer variables, digest) of every mixed model one solve
    builds, and (rows, cols) of every LP it solves cold, in call order."""
    seen = []
    cold = []

    def mixed(model, **kw):
        lp = model.lp
        seen.append((lp.matrix.rows, lp.matrix.cols, tuple(sorted(model.integer_vars)), _digest(lp)))
        return solve_mip(model, **kw)

    def solve(tab):
        cold.append((tab.r, tab.c))
        return cold_solve(tab)

    cold_solve = Tableau.solve
    monkeypatch.setattr(Tableau, "solve", solve)
    for mod in (solver_general, solver_config, solver_nfold):
        monkeypatch.setattr(mod, "solve_mip", mixed)
    res = SOLVERS[kind](instance_from_dict(INSTANCES[kind]), ApproxParams.build("1/2"))
    return res, seen, cold


# (rows, cols, integer variables, SHA-256) of each mixed model.
PINNED = {
    "general": [
        (5, 10, (5, 6, 7), "b5cc86b2af6d48b6dc19a24a070f679c64a417c7a65ede82ceb2250ce183546d"),
    ],
    # blocks of 1, 3 and 3 configurations, three types: 7 z, 7 y, 1 slack;
    # 1 coupling, 7 linking and 3 selection rows
    "nfold-config": [
        (11, 15, tuple(range(7, 14)), "7e3767f61b9646ae88f2680015ee956d4ffe32f6f9056129b46144ad407e4321"),
    ],
    # major configurations per block 1, 2 and 1, three types: 4 z, 4 y, 2
    # minors x, 1 group g, 2 slacks
    "nfold": [
        (10, 13, (4, 5, 6, 7, 10), "b9f81259ec12cee668cc5d8fa6bb92fe650453fc8ca0cb98c7d9372ce8a9d850"),
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_model_layouts(monkeypatch, kind):
    res, seen, cold = _layouts(monkeypatch, kind)
    assert res.status.value == "ok" and res.refinements == 0
    assert seen == PINNED[kind]
    # the only cold LP is each branch-and-bound root
    assert cold == [layout[:2] for layout in seen]


def test_selection_columns_are_distinct_configurations():
    """A selection model has one z per distinct configuration of each block
    and one y per column of each type's key; the layout ``coupled_model``
    reports matches its matrix."""
    rng = random.Random(11)
    for _ in range(30):
        inst = gen_config(rng, n_blocks=rng.randint(1, 5), max_configs=6)
        norm = solver_config.normalize_configs(inst)
        part = partition_config_columns(norm.value_mats, Rat(1, 4))
        model = solver_config.build_mip4(norm, part, (Rat(0),) * len(inst.b0))
        lp = model.mixed.lp
        distinct = [len(set(blk.configs)) for blk in inst.blocks]
        widths = [len(key) for key in part.type_groups]
        assert [len(cols) for cols in model.z] == distinct
        assert [len(cols) for cols in model.y] == widths
        assert sorted(model.mixed.integer_vars) == [j for cols in model.y for j in cols]
        assert lp.matrix.cols == sum(distinct) + sum(widths) + len(inst.b0)
        assert lp.matrix.rows == len(inst.b0) + sum(widths) + len(inst.blocks)
        for i, cols in enumerate(model.z):
            assert len(set(norm.configs[i])) == len(cols)
            assert [j for j, _ in lp.matrix.nonzeros[model.selection[i]]] == list(cols)
            assert [lp.objective[j] for j in cols] == list(norm.costs[i])


GENERATORS = {
    "general": lambda rng: gen_general(
        rng, m=rng.randint(1, 3), n=rng.randint(2, 6), feasible=rng.random() < 0.7
    ),
    "nfold-config": lambda rng: gen_config(
        rng, n_blocks=rng.randint(1, 4), feasible=rng.random() < 0.7
    ),
    "nfold": lambda rng: gen_nonneg(
        rng, n_blocks=rng.randint(1, 3), feasible=rng.random() < 0.7, small_bias=0.6
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(GENERATORS)),
    st.integers(0, 2**32),
    st.sampled_from((Rat(1), Rat(1, 2), Rat(1, 5))),
)
def test_model_rows_are_least_integer_rows(kind, seed, eps):
    """Every row of every mixed model lists its nonzeros in ascending column
    order over the least scale (no common factor of the scale and the
    entries), so it equals the reference rule applied to the model's dense
    rational rendering."""
    lps = []

    def mixed(model, **kw):
        lps.append(model.lp)
        return solve_mip(model, **kw)

    inst = GENERATORS[kind](random.Random(seed))
    with contextlib.ExitStack() as stack:
        for mod in (solver_general, solver_config, solver_nfold):
            stack.enter_context(mock.patch.object(mod, "solve_mip", mixed))
        try:
            SOLVERS[kind](inst, ApproxParams.build(eps))
        except ResourceLimitError:
            pass
    for lp in lps:
        A = lp.matrix
        for nz, s in zip(A.nonzeros, A.scales):
            cols = [j for j, _ in nz]
            assert cols == sorted(set(cols))
            assert all(a for _, a in nz)
            assert math.gcd(s, *(a for _, a in nz)) == 1
        assert int_rows(dense_rows(A)) == A
