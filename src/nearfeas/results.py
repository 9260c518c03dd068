"""Solve outcome types shared by the three pipelines, and ``refine``, their one
verify-and-refine driver, which owns the width halving and the limit's error."""

import enum
from dataclasses import dataclass, field

from .branch_bound import SolveStats
from .errors import RefinementLimitExceeded


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
    x: object = None
    objective: object = None
    report: object = None  # ViolationReport or None
    delta_used: object = None
    refinements: int = 0
    stats: SolveStats = field(default_factory=SolveStats)
    notes: tuple = ()


def refine(attempt, delta, limit):
    """Calls ``attempt(delta)``, a solve at box width ``delta`` that returns
    its ``ApproxResult`` or None on a missed bound, halving ``delta`` after
    each miss; stamps the result's ``refinements``, or fails past ``limit``."""
    for refinements in range(limit + 1):
        result = attempt(delta)
        if result is not None:
            result.refinements = refinements
            return result
        delta = delta / 2
    raise RefinementLimitExceeded(f"violation bound not met after {limit} refinements")

