"""Exact correctness gate for one ``nearfeas solve`` report.

Runs outside the timed region.  The bound is recomputed here from the
instance, the residual from the report's ``x`` with
``instances.violation_report``, and the objective is compared with the
brute-force optimum computed during set-up.
"""

import json

from nearfeas.instances import (
    ADDITIVE,
    MULTIPLICATIVE,
    GeneralIP,
    NFoldConfigInstance,
    NFoldNonnegInstance,
    violation_report,
)
from nearfeas.rationals import format_rat, parse_rat


def _bound(inst, epsilon):
    if isinstance(inst, NFoldNonnegInstance):
        return MULTIPLICATIVE, epsilon
    if isinstance(inst, GeneralIP):
        return ADDITIVE, epsilon * inst.H.inf_norm()
    return ADDITIVE, epsilon * max(blk.D.inf_norm() for blk in inst.blocks)


def certify(call, code, text):
    """Why the solve is not certified, or None when every check holds."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    if report["status"] != "ok":
        return f"status {report['status']}"
    inst = call.case.inst
    if isinstance(inst, GeneralIP):
        x = tuple(report["x"])
    else:
        x = tuple(tuple(xi) for xi in report["x"])
    if isinstance(inst, NFoldConfigInstance):
        for i, (blk, xi) in enumerate(zip(inst.blocks, x)):
            if xi not in blk.configs:
                return f"block {i} selection {xi} is not in its configuration set"

    mode, bound = _bound(inst, call.epsilon)
    check = violation_report(inst, x, mode, bound)
    if not check.within_bound:
        return f"residual {format_rat(check.max_abs_residual)} outside bound {format_rat(bound)}"
    if report["residual"] != [format_rat(r) for r in check.residual]:
        return "reported residual differs from the recomputed one"
    if report["bound"] != format_rat(bound):
        return f"reported bound {report['bound']} differs from {format_rat(bound)}"
    if parse_rat(report["objective"]) != check.objective:
        return "reported objective differs from w.x"
    optimum = call.case.optimum
    if optimum is None or check.objective > optimum:
        return f"objective {format_rat(check.objective)} exceeds the optimum {optimum}"
    if "oracle" in report and not report["oracle"]["check_passed"]:
        return "the report's own oracle check failed"
    if "schedule" in report and not report["schedule"]["makespan_within_bound"]:
        return "makespan outside its bound"
    return None
