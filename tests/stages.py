"""Stage records of pipeline runs, taken from outside the package.

``record_stages()`` is a context manager that wraps five rounding stages in
every ``nearfeas`` module that holds them, as ``perfbench/spans.py``'s
``Tracer`` does, restores them on exit, and yields a ``Stages`` whose lists
the wrapped stages fill.  The tests check the recorded vertices' structure
with ``structure.py`` and the roundings' guarantees against the records.
"""

import contextlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from nearfeas import rounding, solver_config, solver_general, solver_nfold


@dataclass
class Stages:
    grouped_optima: list = field(default_factory=list)  # (CoupledModel, mixed values)
    selection_optima: list = field(default_factory=list)  # (CoupledModel, mixed values)
    tu_calls: list = field(default_factory=list)  # (restriction, fractional objective, rounded)
    group_plans: list = field(default_factory=list)  # GroupRoundingPlan
    clamps: list = field(default_factory=list)  # per clamped recombination: its clamps


def _replace(raw, wrapped, undo):
    """Replace ``raw`` by ``wrapped`` in every loaded ``nearfeas`` module."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nearfeas" or name.startswith("nearfeas.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is raw:
                undo.append((mod, key, raw))
                setattr(mod, key, wrapped)


@contextlib.contextmanager
def record_stages():
    rec = Stages()
    selecting = []  # (model, mixed values) of the selection stage running now

    round_within_groups = solver_general.round_within_groups
    select_columns = solver_config.select_columns
    tu_round = rounding.tu_round
    recombine = solver_nfold._recombine
    build = vars(rounding.GroupRoundingPlan)["build"]

    def grouped(model, mixed_sol):
        rec.grouped_optima.append((model, mixed_sol.values))
        return round_within_groups(model, mixed_sol)

    def selection(model, mixed_sol, stats):
        rec.selection_optima.append((model, mixed_sol.values))
        selecting.append((model, mixed_sol.values))
        try:
            return select_columns(model, mixed_sol, stats)
        finally:
            selecting.pop()

    def tu(restriction, stats=None):
        rounded = tu_round(restriction, stats=stats)
        if selecting:
            model, values = selecting[-1]
            cols = [model.z[i][phi] for i, phi in restriction.keys]
            objective = model.mixed.lp.objective
            fractional = sum((objective[j] * values[j] for j in cols), Fraction(0))
            rec.tu_calls.append((restriction, fractional, rounded))
        return rounded

    def plan(cls, entries, den):
        result = build.__func__(cls, entries, den)
        rec.group_plans.append(result)
        return result

    def recombined(*args):
        x, clamped = recombine(*args)
        if clamped:
            rec.clamps.append(tuple(clamped))
        return x, clamped

    undo = [(rounding.GroupRoundingPlan, "build", build)]
    rounding.GroupRoundingPlan.build = classmethod(plan)
    for raw, wrapped in (
        (round_within_groups, grouped),
        (select_columns, selection),
        (tu_round, tu),
        (recombine, recombined),
    ):
        _replace(raw, wrapped, undo)
    try:
        yield rec
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
