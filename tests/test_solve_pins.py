"""Pinned effort and optimum of ``nearfeas solve`` on seeded instances.

Pivot and node counts are deterministic, so a change to any pivot or
branching decision fails here, not only in the benchmark.  Two instances
per pipeline; every one carries halves, and the general instance of seed 4
has rational constraint rows, right-hand side and weights alike.
"""

import json
import random

import pytest

from nearfeas.cli import main
from nearfeas.generate import gen_config, gen_general, gen_nonneg
from nearfeas.instances import instance_to_dict

_GENERATORS = {
    "general": lambda rng: gen_general(rng, m=2, n=7),
    "nfold_config": lambda rng: gen_config(rng, n_blocks=5),
    "nfold_nonneg": lambda rng: gen_nonneg(rng, n_blocks=4, t=3, u_max=5, small_bias=0.5),
}

# (kind, seed, lp_pivots, bb_nodes, objective) at --epsilon 1/5
_CASES = [
    ("general", 2, 56, 49, "-3"),
    ("general", 4, 43, 27, "-37/2"),
    ("nfold_config", 0, 85, 29, "-7"),
    ("nfold_config", 3, 67, 31, "2"),
    ("nfold_nonneg", 16, 29, 11, "27"),
    ("nfold_nonneg", 4, 19, 7, "22"),
]


@pytest.mark.parametrize("kind, seed, pivots, nodes, objective", _CASES)
def test_solve_effort_is_pinned(tmp_path, capsys, kind, seed, pivots, nodes, objective):
    data = instance_to_dict(_GENERATORS[kind](random.Random(seed)))
    assert data["kind"] == kind
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--input", str(path), "--epsilon", "1/5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    stats = report["solve_stats"]
    assert (stats["lp_pivots"], stats["bb_nodes"], report["objective"]) == (pivots, nodes, objective)
    phases = ("lp_crash_pivots", "lp_phase1_pivots", "lp_phase2_pivots", "lp_dual_pivots")
    assert stats["lp_pivots"] == sum(stats[k] for k in phases)


def test_a_pinned_instance_has_rational_rows_rhs_and_weights():
    data = instance_to_dict(_GENERATORS["general"](random.Random(4)))
    for key in ("H", "b", "w"):
        assert "/" in json.dumps(data[key]), key
