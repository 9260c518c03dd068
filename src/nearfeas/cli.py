"""Command-line surface: solve, oracle, gen, check.

``instances`` parses and validates instance files and owns each kind's
report name; ``_KINDS`` maps each instance type to its solve step, so the
file's ``kind`` picks the pipeline.
Reports are deterministic JSON (sorted keys); every rational appears as an
authoritative exact string alongside a float approximation for readability,
null for a value outside the float range.
Exit codes: 0 solved within bound, 2 near-feasibility unattainable,
3 infeasible, 4 resource limit exceeded or out of memory, 1 usage or parse
error ("error: ..." on stderr), 5 internal error (a broken solver invariant).
"""

import argparse
import dataclasses
import functools
import json
import random
import sys

from .apps import scheduling_to_config
from .errors import (
    InstanceFormatError,
    InvalidInstanceError,
    NearfeasError,
    ResourceLimitError,
)
from .generate import gen_config, gen_general, gen_nonneg, gen_scheduling
from .instances import (
    ApproxParams,
    GeneralIP,
    NFoldConfigInstance,
    NFoldNonnegInstance,
    SchedulingInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate,
)
from .oracle import DEFAULT_CAP, brute_force
from .rationals import format_rat, parse_rat, to_float
from .results import SolveStatus
from .solver_config import solve_nfold_config
from .solver_general import solve_general
from .solver_nfold import solve_nfold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNATTAINABLE = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_STATUS_EXIT = {
    SolveStatus.OK: EXIT_OK,
    SolveStatus.NEAR_FEASIBILITY_UNATTAINABLE: EXIT_UNATTAINABLE,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
}


def _rat_json(report, key, value):
    if value is None:
        report[key] = None
        report[f"{key}_approx"] = None
    else:
        report[key] = format_rat(value)
        report[f"{key}_approx"] = to_float(value)


def _solution_json(x):
    if x is None:
        return None
    if x and isinstance(x[0], tuple):
        return [[int(v) for v in blk] for blk in x]
    return [int(v) for v in x]


def _result_report(kind, epsilon, result):
    report = {
        "kind": kind,
        "epsilon": format_rat(epsilon),
        "status": result.status.value,
        "within_bound": bool(result.report.within_bound) if result.report else False,
        "refinements": result.refinements,
        # every SolveStats field, without asdict's deep copy of each int
        "solve_stats": {
            f.name: getattr(result.stats, f.name) for f in dataclasses.fields(result.stats)
        },
        "x": _solution_json(result.x),
        "notes": list(result.notes),
    }
    _rat_json(report, "objective", result.objective)
    if result.report is not None:
        report["mode"] = result.report.mode
        report["residual"] = [format_rat(v) for v in result.report.residual]
        report["residual_approx"] = [to_float(v) for v in result.report.residual]
        _rat_json(report, "max_abs_residual", result.report.max_abs_residual)
        _rat_json(report, "bound", result.report.bound)
    else:
        report["mode"] = None
        report["residual"] = []
        report["residual_approx"] = []
        _rat_json(report, "max_abs_residual", None)
        _rat_json(report, "bound", None)
    report["delta_used"] = format_rat(result.delta_used) if result.delta_used is not None else None
    return report


def _emit(report, json_out):
    """Write the report to ``json_out``, if given, and then to stdout, so a
    sink that cannot be written leaves stdout empty."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _scheduling_core(inst):
    return scheduling_to_config(inst.jobs, inst.cmax, costs=inst.costs)


def _solve_scheduling(inst, params):
    """Solve the configuration core; the report gains the decoded schedule
    and its additive makespan bound cmax + epsilon * max p."""
    core, decode = _scheduling_core(inst)
    result = solve_nfold_config(core, params)
    d = decode(result.x)
    bound = inst.cmax + params.epsilon * inst.max_time()
    schedule = {
        "assignment": list(d.assignment),
        "loads": [format_rat(v) for v in d.loads],
        "makespan": format_rat(d.makespan),
        "makespan_approx": to_float(d.makespan),
        "makespan_bound": format_rat(bound),
        "makespan_within_bound": bool(d.makespan <= bound),
    }
    if inst.costs is not None:
        schedule["cost"] = format_rat(d.cost)
    return result, core, {"schedule": schedule}


# instance type -> solve step; a step returns (result, the instance the
# oracle checks it on, extra report sections).  Steps look each solver up at
# call time, so a tracer that replaces a solver on this module sees every call.
_KINDS = {
    GeneralIP: lambda inst, p: (solve_general(inst, p), inst, {}),
    NFoldConfigInstance: lambda inst, p: (solve_nfold_config(inst, p), inst, {}),
    NFoldNonnegInstance: lambda inst, p: (solve_nfold(inst, p), inst, {}),
    SchedulingInstance: _solve_scheduling,
}


def _rat_flag(flag, text):
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise InvalidInstanceError([f"{flag}: {exc}"]) from exc


def _oracle_section(inst, result):
    orc = brute_force(inst)
    section = {"feasible": orc.feasible}
    _rat_json(section, "optimum", orc.optimum)
    ok = True
    if result.status == SolveStatus.OK:
        if orc.feasible:
            le = result.objective <= orc.optimum
            section["objective_le_opt"] = bool(le)
            section["objective_guarantee_vacuous"] = False
            ok = le and result.report.within_bound
        else:
            section["objective_le_opt"] = None
            section["objective_guarantee_vacuous"] = True
    else:
        # an exactly-feasible instance embeds into every relaxed model, so
        # neither "infeasible" nor "unattainable" may coexist with a feasible
        # oracle verdict
        section["objective_le_opt"] = None
        section["objective_guarantee_vacuous"] = True
        ok = not orc.feasible
    section["check_passed"] = bool(ok)
    return section, ok


def cmd_solve(args):
    inst = load_instance(args.input)
    params = ApproxParams.build(
        _rat_flag("--epsilon", args.epsilon),
        delta_override=None if args.delta is None else _rat_flag("--delta", args.delta),
        refinement_limit=args.refine_limit,
        node_limit=args.node_limit,
    )
    result, check_inst, sections = _KINDS[type(inst)](inst, params)
    report = _result_report(inst.kind, params.epsilon, result)
    report.update(sections)
    exit_code = _STATUS_EXIT[result.status]

    if args.oracle_check:
        section, ok = _oracle_section(check_inst, result)
        report["oracle"] = section
        if not ok:
            # a result the oracle contradicts is a solver bug
            _emit(report, args.json_out)
            sys.stderr.write(
                "internal error: oracle check failed: objective "
                f"{report['objective']} vs optimum {section['optimum']}, "
                f"max residual {report['max_abs_residual']} vs bound {report['bound']}\n"
            )
            return EXIT_INTERNAL

    _emit(report, args.json_out)
    return exit_code


def cmd_oracle(args):
    inst = load_instance(args.input)
    if isinstance(inst, SchedulingInstance):
        inst, _ = _scheduling_core(inst)
    orc = brute_force(inst, cap=args.cap)
    report = {"feasible": orc.feasible}
    _rat_json(report, "optimum", orc.optimum)
    report["witness"] = _solution_json(orc.witness)
    _emit(report, args.json_out)
    return EXIT_OK if orc.feasible else EXIT_INFEASIBLE


# gen's size flags, by argparse destination, and the least value each accepts
_GEN_MINIMA = {"m": 1, "n": 1, "blocks": 1, "s": 1, "t": 1, "delta_max": 0}


def cmd_gen(args):
    for dest, least in _GEN_MINIMA.items():
        if getattr(args, dest) < least:
            flag = "--" + dest.replace("_", "-")
            raise InvalidInstanceError([f"{flag} must be at least {least}"])
    rng = random.Random(args.seed)
    if args.kind == "general":
        inst = gen_general(rng, m=args.m, n=args.n, delta_max=args.delta_max)
    elif args.kind == "nfold-config":
        inst = gen_config(rng, n_blocks=args.blocks, s=args.s, t=args.t)
    elif args.kind == "nfold-nonneg":
        inst = gen_nonneg(rng, n_blocks=args.blocks, s_a=args.s, s_d=args.s, t=args.t)
    else:
        inst = instance_from_dict(gen_scheduling(rng, n_jobs=args.n, m_machines=args.m))
    text = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args):
    problems, _ = validate(load_instance(args.input))
    if problems:
        raise InvalidInstanceError(problems)
    sys.stdout.write("ok\n")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by every later
    ``main`` call of the process."""
    parser = argparse.ArgumentParser(
        prog="nearfeas",
        description="Exact-rational approximation pipelines for integer programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, help='rational, e.g. "1/5"')
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--json-out", default=None)
    p.add_argument("--refine-limit", type=int, default=ApproxParams.refinement_limit)
    p.add_argument("--node-limit", type=int, default=ApproxParams.node_limit)
    p.add_argument("--delta", default=None, help="override the initial box width")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force solve")
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument(
        "--kind",
        choices=["general", "nfold-config", "nfold-nonneg", "scheduling"],
        required=True,
    )
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError:
        sys.stderr.write("resource limit: out of memory\n")
        return EXIT_RESOURCE
    except (InstanceFormatError, InvalidInstanceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NearfeasError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
