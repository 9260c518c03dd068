"""Solve outcome types shared by the three pipelines."""

import enum
from dataclasses import dataclass, field

from .branch_bound import SolveStats


class SolveStatus(enum.Enum):
    OK = "ok"
    NEAR_FEASIBILITY_UNATTAINABLE = "near_feasibility_unattainable"
    INFEASIBLE = "infeasible"


@dataclass
class ApproxResult:
    """Integer solution plus its exact violation report and solve metadata.

    ``x`` is a flat vector for GeneralIP and a tuple of per-block vectors for
    the n-fold kinds; it is None only when status is INFEASIBLE.
    """

    status: SolveStatus
    x: object
    objective: object
    report: object  # ViolationReport or None
    delta_used: object
    refinements: int
    stats: SolveStats = field(default_factory=SolveStats)
    notes: tuple = ()


@dataclass
class PipelineTrace:
    """Optional collector for the structural invariants exercised in tests."""

    grouped_optima: list = field(default_factory=list)  # (CoupledModel, mixed values)
    selection_optima: list = field(default_factory=list)  # (model, values, type_cols)
    tu_calls: list = field(default_factory=list)  # (restriction, fractional, rounded)
    group_plans: list = field(default_factory=list)
    clamps: list = field(default_factory=list)
