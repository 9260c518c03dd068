"""Pinned layouts of the coupled mixed models and their pinned restrictions.

For one small instance per pipeline (nonnegative n-fold in case 2, with
minor variables), every mixed model handed to branch-and-bound and every
restriction LP solved to a vertex is recorded in call order.  Its shape, its
integer variables and a SHA-256 of its exact entries, right-hand side, bounds
and objective are compared with pinned values, so a change of column or row
order, or of any entry, bound or cost, fails here and not only in a
benchmark report.
"""

import hashlib
import random

import pytest

from nearfeas import solver_config, solver_general, solver_nfold
from nearfeas.boxes import partition_config_columns
from nearfeas.branch_bound import solve_mip
from nearfeas.generate import gen_config
from nearfeas.instances import ApproxParams, instance_from_dict
from nearfeas.rationals import Rat
from nearfeas.simplex import solve_lp_vertex

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
    h = hashlib.sha256()
    for part in (lp.matrix.entries, lp.rhs, lp.lower, lp.upper, lp.objective):
        h.update(" ".join(map(str, part)).encode() + b";")
    return h.hexdigest()


def _layouts(monkeypatch, kind):
    """(rows, cols, integer variables or None, digest) of every mixed model
    and restriction LP one solve builds, in call order."""
    seen = []

    def mixed(model, **kw):
        lp = model.lp
        seen.append((lp.matrix.rows, lp.matrix.cols, tuple(sorted(model.integer_vars)), _digest(lp)))
        return solve_mip(model, **kw)

    def restriction(lp):
        seen.append((lp.matrix.rows, lp.matrix.cols, None, _digest(lp)))
        return solve_lp_vertex(lp)

    for mod in (solver_general, solver_config, solver_nfold):
        for name, fn in (("solve_mip", mixed), ("solve_lp_vertex", restriction)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    res = SOLVERS[kind](instance_from_dict(INSTANCES[kind]), ApproxParams.build("1/2"))
    return res, seen


# (rows, cols, integer variables, SHA-256): the mixed model first, then each
# restriction in the order it is solved (nonnegative n-fold: the selections',
# then the minors').
PINNED = {
    "general": [
        (5, 10, (5, 6, 7), "b5cc86b2af6d48b6dc19a24a070f679c64a417c7a65ede82ceb2250ce183546d"),
        (5, 5, None, "2c9ec0b0748d42058d99ea11d02ab03fe9acd2e98b173c21e8c85b21f7f47c31"),
    ],
    # blocks of 1, 3 and 3 configurations, three types: 7 z, 7 y, 1 slack;
    # 1 coupling, 7 linking and 3 selection rows
    "nfold-config": [
        (11, 15, tuple(range(7, 14)), "7e3767f61b9646ae88f2680015ee956d4ffe32f6f9056129b46144ad407e4321"),
        (11, 7, None, "39dd18476ef818bcefa9f26f8397a1a06764c8a4b0d2bcf1cccac3a36c3d5c48"),
    ],
    # major configurations per block 1, 2 and 1, three types: 4 z, 4 y, 2
    # minors x, 1 group g, 2 slacks
    "nfold": [
        (10, 13, (4, 5, 6, 7, 10), "b9f81259ec12cee668cc5d8fa6bb92fe650453fc8ca0cb98c7d9372ce8a9d850"),
        (9, 4, None, "592ce23f8ce3b5509eea4b340ca37fe687539f1978db15cff35bff246b07edd8"),
        (3, 2, None, "c83b848e34b481c87dd5f016332169500b6d368d6a401b0ee14b3681738b1ab3"),
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_model_layouts(monkeypatch, kind):
    res, seen = _layouts(monkeypatch, kind)
    assert res.status.value == "ok" and res.refinements == 0
    assert seen == PINNED[kind]


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
            row = lp.matrix.row(model.selection[i])
            assert [j for j, v in enumerate(row) if v] == list(cols)
            assert [lp.objective[j] for j in cols] == list(norm.costs[i])
