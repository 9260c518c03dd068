"""Exact-rational approximation pipelines for integer programs.

Solvers return integer solutions whose objective never exceeds the true
optimum while the constraints are violated by at most a proportional amount,
all certified with exact arithmetic.  A brute-force oracle provides ground
truth at desk scale.
"""

from .backend import KERNEL_BACKEND
from .branch_bound import MixedModel, MixedSolution, SolveStats, solve_mip
from .instances import (
    ADDITIVE,
    MULTIPLICATIVE,
    ApproxParams,
    GeneralIP,
    NFoldConfigInstance,
    NFoldNonnegInstance,
    ViolationReport,
    load_instance,
    validate_general,
    violation_report,
)
from .linalg import Matrix
from .oracle import brute_force, brute_force_config, brute_force_general, brute_force_nfold
from .rationals import RAT_BACKEND, Rat, as_rat, format_rat, parse_rat
from .results import ApproxResult, SolveStatus
from .simplex import LinearProgram, LPStatus, VertexSolution, solve_lp_vertex

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE",
    "ApproxParams",
    "ApproxResult",
    "GeneralIP",
    "KERNEL_BACKEND",
    "LPStatus",
    "LinearProgram",
    "Matrix",
    "MixedModel",
    "MixedSolution",
    "MULTIPLICATIVE",
    "NFoldConfigInstance",
    "NFoldNonnegInstance",
    "RAT_BACKEND",
    "Rat",
    "SolveStats",
    "SolveStatus",
    "VertexSolution",
    "ViolationReport",
    "as_rat",
    "brute_force",
    "brute_force_config",
    "brute_force_general",
    "brute_force_nfold",
    "format_rat",
    "load_instance",
    "parse_rat",
    "solve_lp_vertex",
    "solve_mip",
    "validate_general",
    "violation_report",
]
