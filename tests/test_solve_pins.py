"""Pinned effort and optimum of ``nearfeas solve`` on seeded instances.

Pivot and node counts are deterministic, so a change to any pivot or
branching decision fails here, not only in the benchmark.  Two instances
per pipeline; every one carries halves, and the general instance of seed 4
has rational constraint rows, right-hand side and weights alike.  The same
solves check that ``lp_dual_flips`` counts the bound flips of every dual
simplex run, a cold solve's and the node re-optimizations'.
"""

import json
import random

import pytest

from nearfeas.cli import main
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import instance_to_dict
from nearfeas.simplex import Tableau

_GENERATORS = {
    "general": lambda rng: gen_general(rng, m=2, n=7),
    "nfold_config": lambda rng: gen_config(rng, n_blocks=5),
    "nfold_nonneg": lambda rng: gen_nonneg(rng, n_blocks=4, t=3, u_max=5, small_bias=0.5),
}

# (kind, seed, lp_pivots, bb_nodes, objective) at --epsilon 1/5
_CASES = [
    ("general", 2, 56, 49, "-3"),
    ("general", 4, 33, 27, "-37/2"),
    ("nfold_config", 0, 58, 29, "-7"),
    ("nfold_config", 3, 47, 31, "2"),
    ("nfold_nonneg", 16, 24, 11, "27"),
    ("nfold_nonneg", 4, 19, 7, "22"),
]


def _solve(tmp_path, capsys, kind, seed):
    data = instance_to_dict(_GENERATORS[kind](random.Random(seed)))
    assert data["kind"] == kind
    path = tmp_path / f"{kind}-{seed}.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--input", str(path), "--epsilon", "1/5"]) == 0
    return json.loads(capsys.readouterr().out)


# ids of kind and seed alone, so a changed count keeps each test's name
@pytest.mark.parametrize(
    "kind, seed, pivots, nodes, objective", _CASES, ids=[f"{k}-{s}" for k, s, *_ in _CASES]
)
def test_solve_effort_is_pinned(tmp_path, capsys, kind, seed, pivots, nodes, objective):
    report = _solve(tmp_path, capsys, kind, seed)
    assert report["status"] == "ok"
    stats = report["solve_stats"]
    assert (stats["lp_pivots"], stats["bb_nodes"], report["objective"]) == (pivots, nodes, objective)
    phases = ("lp_crash_pivots", "lp_dual_pivots")
    assert stats["lp_pivots"] == sum(stats[k] for k in phases)


def test_a_pinned_instance_has_rational_rows_rhs_and_weights():
    data = instance_to_dict(_GENERATORS["general"](random.Random(4)))
    for key in ("H", "b", "w"):
        assert "/" in json.dumps(data[key]), key


def test_the_reported_dual_flips_are_the_re_optimizations_flips(tmp_path, capsys):
    # every Tableau._flip made inside a dual simplex run, cold or warm,
    # counted from outside; the flips that make a cold solve's crash basis
    # dual feasible come before its run and are not dual flips
    flip, dual = Tableau._flip, Tableau._dual
    inside, counted = [], []

    def counting_flip(tab, k):
        counted[-1] += bool(inside)
        flip(tab, k)

    def marked_dual(tab, *args):
        inside.append(tab)
        try:
            return dual(tab, *args)
        finally:
            inside.pop()

    reported = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tableau, "_flip", counting_flip)
        mp.setattr(Tableau, "_dual", marked_dual)
        for kind, seed, *_ in _CASES:
            counted.append(0)
            reported.append(_solve(tmp_path, capsys, kind, seed)["solve_stats"]["lp_dual_flips"])
    assert reported == counted
    assert sum(counted) > 0
