"""Instance catalogs of the solve benchmark and their ground truth.

Each workload is a fixed list of ``nearfeas solve`` calls over instance files
written during set-up.  Every call carries what the correctness gate needs:
the instance its report is re-checked against (the configuration core for a
scheduling file), the epsilon it ran with, and the brute-force optimum.
"""

import json
import os
import random
from dataclasses import dataclass

from nearfeas.apps import scheduling_to_config
from nearfeas.generate import gen_config, gen_general, gen_nonneg, gen_scheduling
from nearfeas.instances import instance_to_dict
from nearfeas.oracle import brute_force
from nearfeas.rationals import Rat

EPS_CYCLE = (Rat(1), Rat(1, 2), Rat(1, 5))
EPS_FIFTH = Rat(1, 5)

# Catalog sizes are frozen: later changes are compared on exactly these.
GENERAL_INSTANCES = 60
CONFIG_INSTANCES = 10
SCHEDULING_INSTANCES = 2
DESK_INSTANCES = 120


@dataclass(frozen=True)
class Case:
    """One instance file and the ground truth its reports are checked on."""

    path: str
    inst: object
    optimum: object  # exact brute-force optimum, None if infeasible


@dataclass(frozen=True)
class Call:
    case: Case
    epsilon: object
    argv: tuple


def _general_few_rows(rng):
    for i in range(GENERAL_INSTANCES):
        inst = gen_general(rng, m=rng.randint(1, 3), n=rng.randint(2, 12), box_cap=30_000)
        runs = [(EPS_CYCLE[i % 3], ())]
        if i % 5 == 0:
            # a coarse first width forces refinement and group rounding to run
            runs.append((EPS_FIFTH, ("--delta", "1", "--refine-limit", "16")))
        yield instance_to_dict(inst), inst, runs


def _config_deep(rng):
    for i in range(CONFIG_INSTANCES):
        inst = gen_config(rng, n_blocks=4 + i % 5, s=2, t=2)
        yield instance_to_dict(inst), inst, [(EPS_FIFTH, ())]
    for _ in range(SCHEDULING_INSTANCES):
        data = gen_scheduling(rng, n_jobs=5, m_machines=2)
        core, _ = scheduling_to_config(data["jobs"], data["cmax"])
        yield data, core, [(EPS_FIFTH, ())]


def _desk_cli(rng):
    for i in range(DESK_INSTANCES):
        kind = i % 3
        if kind == 0:
            inst = gen_general(rng, m=rng.randint(1, 2), n=rng.randint(2, 6))
        elif kind == 1:
            inst = gen_config(rng, n_blocks=rng.randint(1, 4))
        else:
            inst = gen_nonneg(rng, n_blocks=rng.randint(1, 4), small_bias=0.5)
        yield instance_to_dict(inst), inst, [(EPS_FIFTH, ("--oracle-check",))]


WORKLOADS = {
    "general-few-rows": _general_few_rows,
    "config-deep": _config_deep,
    "desk-cli": _desk_cli,
}


def build(workload, catalog, workdir):
    """Generate the catalog, write its files and compute the oracle optima."""
    rng = random.Random(f"{workload}/{catalog}")
    calls = []
    for k, (data, inst, runs) in enumerate(WORKLOADS[workload](rng)):
        path = os.path.join(workdir, f"{k:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        case = Case(path, inst, brute_force(inst).optimum)
        for eps, extra in runs:
            argv = ("solve", "--input", path, "--epsilon", str(eps)) + extra
            calls.append(Call(case, eps, argv))
    return calls
