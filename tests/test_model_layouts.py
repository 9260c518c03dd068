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

import pytest

from nearfeas import solver_config, solver_general, solver_nfold
from nearfeas.branch_bound import solve_mip
from nearfeas.instances import ApproxParams, instance_from_dict
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
    "nfold-config": [
        (13, 19, tuple(range(9, 18)), "67e8d80bad60237594ef3ab552d9126424a4642294ac57f1628e2db968af80d9"),
        (13, 9, None, "90a3be1601f70e00ad3afb0f97fe487a7ed3c642edfb2c5f657c7263e352f2bd"),
    ],
    "nfold": [
        (12, 17, (6, 7, 8, 9, 10, 11, 14), "4da12d5eb1ae32cf51870506bd2a84a461e2694b8fae22348d5e48dda52bcd04"),
        (11, 6, None, "2ae17a21aa238469c6188a3705299d8e8f7a50a8e2e7b4d95fed79c3a1fa5727"),
        (3, 2, None, "c83b848e34b481c87dd5f016332169500b6d368d6a401b0ee14b3681738b1ab3"),
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_model_layouts(monkeypatch, kind):
    res, seen = _layouts(monkeypatch, kind)
    assert res.status.value == "ok" and res.refinements == 0
    assert seen == PINNED[kind]
