import collections
import contextlib
import copy
import importlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nearfeas import cli, simplex, solver_config
from nearfeas.cli import main
from nearfeas.generate import gen_config, gen_general, gen_nonneg, gen_scheduling
from nearfeas.instances import (
    ApproxParams,
    instance_from_dict,
    instance_to_dict,
    validate_config,
    validate_general,
    validate_nonneg,
    validate_scheduling,
)
from nearfeas.oracle import brute_force
from nearfeas.rationals import Rat, parse_rat, to_float


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--kind", "general", "--m", "2", "--n", "6", "--seed", "7", "--output", str(a)]) == 0
    assert main(["gen", "--kind", "general", "--m", "2", "--n", "6", "--seed", "7", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_the_file_text_to_stdout_without_output(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    argv = ["gen", "--kind", "nfold-nonneg", "--blocks", "2", "--seed", "3"]
    assert run(capsys, *argv, "--output", str(out_file)) == (0, "", "")
    assert run(capsys, *argv) == (0, out_file.read_text(), "")


def test_solve_general_with_oracle_check(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--m", "1", "--n", "4", "--seed", "3", "--output", str(inst)])
    code, out, err = run(
        capsys, "solve", "--input", str(inst), "--epsilon", "1/5", "--oracle-check"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["within_bound"] is True
    assert report["oracle"]["check_passed"] is True
    assert report["solve_stats"]["lp_pivots"] >= 0
    assert set(report["solve_stats"]) == {
        "lp_pivots",
        "lp_crash_pivots",
        "lp_dual_pivots",
        "lp_dual_flips",
        "bb_nodes",
        "bb_infeasible",
        "bb_pruned",
        "bb_incumbents",
        "bb_max_depth",
    }


def test_solve_report_byte_deterministic(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "nfold-config", "--blocks", "3", "--seed", "11", "--output", str(inst)])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    c1, _, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--json-out", str(out1))
    c2, _, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--json-out", str(out2))
    assert c1 == c2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unwritable_json_out_leaves_stdout_empty(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "1", "--output", str(inst)])
    code, out, err = run(
        capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--json-out", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["general", "nfold-config", "nfold-nonneg", "scheduling"])
def test_report_rationals_round_trip(tmp_path, capsys, kind):
    """Every exact field of a report parses with parse_rat, and every
    ``*_approx`` is to_float of the parsed value."""
    inst = tmp_path / "i.json"
    main(["gen", "--kind", kind, "--seed", "1", "--output", str(inst)])
    code, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2")
    assert code == 0
    report = json.loads(out)
    for key in ("objective", "bound", "max_abs_residual"):
        assert report[f"{key}_approx"] == to_float(parse_rat(report[key]))
    assert report["residual_approx"] == [to_float(parse_rat(v)) for v in report["residual"]]
    assert parse_rat(report["epsilon"]) == parse_rat("1/2")
    assert parse_rat(report["delta_used"]) > 0
    if kind == "scheduling":
        schedule = report["schedule"]
        loads = [parse_rat(v) for v in schedule["loads"]]
        makespan = parse_rat(schedule["makespan"])
        assert makespan == max(loads)
        assert schedule["makespan_approx"] == to_float(makespan)
        assert makespan <= parse_rat(schedule["makespan_bound"])


def test_check_crossed_bounds_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format": 1,
                "kind": "general",
                "H": [["1"]],
                "b": ["1"],
                "w": ["1"],
                "l": [3],
                "u": [1],
            }
        )
    )
    code, out, err = run(capsys, "check", "--input", str(bad))
    assert code == 1
    assert "bounds crossed" in err


def test_check_ok(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "1", "--output", str(inst)])
    code, out, _ = run(capsys, "check", "--input", str(inst))
    assert code == 0 and out.strip() == "ok"


def test_parse_error_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": 1, "kind": "general", "H": [["x"]], "b": ["1"], "w": ["1"], "l": [0], "u": [1]}))
    code, out, err = run(capsys, "check", "--input", str(bad))
    assert code == 1
    assert "$.H[0][0]" in err
    # a JSON boolean is no rational: one rational field per kind (scheduling's
    # cmax is a case of test_malformed_scheduling_file_exits_one)
    general = {"format": 1, "kind": "general", "H": [[True, "2"]], "b": [False],
               "w": ["1", "1"], "l": [0, 0], "u": [1, 1]}
    config = copy.deepcopy(VALID_FILES["nfold_config"])
    config["blocks"][0]["weights"][0] = True
    nonneg = copy.deepcopy(VALID_FILES["nfold_nonneg"])
    nonneg["blocks"][0]["bi"][0] = False
    for data, path in (
        (general, "$.H[0][0]"),
        (config, "$.blocks[0].weights[0]"),
        (nonneg, "$.blocks[0].bi[0]"),
    ):
        bad.write_text(json.dumps(data))
        for argv in (("check",), ("oracle",), ("solve", "--epsilon", "1/2")):
            code, out, err = run(capsys, argv[0], "--input", str(bad), *argv[1:])
            assert (code, out, err) == (1, "", f"error: {path}: boolean values are not allowed\n")
    # nor is a boolean or a float the format number 1
    for fmt in (True, 1.0):
        bad.write_text(json.dumps({**general, "H": [["1", "2"]], "b": ["1"], "format": fmt}))
        code, out, err = run(capsys, "check", "--input", str(bad))
        assert (code, out) == (1, "") and err.startswith("error: $.format: ")


def test_solve_infeasible_exit_code(tmp_path, capsys):
    inst = tmp_path / "inf.json"
    inst.write_text(
        json.dumps(
            {
                "format": 1,
                "kind": "general",
                "H": [["2"]],
                "b": ["31"],
                "w": ["1"],
                "l": [0],
                "u": [5],
            }
        )
    )
    code, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/5")
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"


@pytest.mark.parametrize(
    "blocks, b0, code, status",
    [
        # the local row needs A x = 1 from a zero column: infeasible
        ([{"A": [["0"]], "D": [["1"]], "bi": ["1"], "u": [2], "w": ["1"]}], ["1"], 3, "infeasible"),
        (
            [
                {"A": [["0", "1"]], "D": [["1", "1"]], "bi": ["1"], "u": [2, 1], "w": ["1", "1"]},
                {"A": [["1", "1"]], "D": [["1", "2"]], "bi": ["1"], "u": [1, 1], "w": ["1", "2"]},
            ],
            ["3"],
            0,
            "ok",
        ),
    ],
)
def test_solve_zero_local_column(tmp_path, capsys, blocks, b0, code, status):
    # a local column that is zero in every surviving row is valid input, and
    # solve agrees with the oracle on it
    inst = tmp_path / "zero.json"
    inst.write_text(json.dumps({"format": 1, "kind": "nfold_nonneg", "blocks": blocks, "b0": b0}))
    assert run(capsys, "check", "--input", str(inst))[0] == 0
    got, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--oracle-check")
    report = json.loads(out)
    assert (got, report["status"]) == (code, status)
    assert report["oracle"]["feasible"] == (status == "ok")
    if status == "ok":
        assert report["oracle"]["check_passed"] is True
    assert run(capsys, "oracle", "--input", str(inst))[0] == code


def test_solve_unattainable_exit_code(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    inst.write_text(
        json.dumps(
            {
                "format": 1,
                "kind": "nfold_config",
                "blocks": [{"D": [["1"]], "configs": [[0]], "weights": ["1"]}],
                "b0": ["10"],
            }
        )
    )
    code, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/10")
    assert code == 2
    assert json.loads(out)["status"] == "near_feasibility_unattainable"


def test_scheduling_solve(tmp_path, capsys):
    inst = tmp_path / "s.json"
    main(["gen", "--kind", "scheduling", "--n", "3", "--m", "2", "--seed", "5", "--output", str(inst)])
    code, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["schedule"]["makespan_within_bound"] is True


def test_oracle_subcommand(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--m", "1", "--n", "3", "--seed", "9", "--output", str(inst)])
    code, out, _ = run(capsys, "oracle", "--input", str(inst))
    assert code in (0, 3)
    report = json.loads(out)
    assert "feasible" in report and "optimum" in report


def test_oracle_validates_like_check_and_solve(tmp_path, capsys):
    # b has one entry for two rows; the first row alone would admit x = (0, 2)
    data = {"format": 1, "kind": "general", "H": [["1", "1"], ["1", "-1"]], "b": ["2"],
            "w": ["1", "1"], "l": [0, 0], "u": [3, 3]}
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(data))
    for argv in (("oracle",), ("check",), ("solve", "--epsilon", "1/2")):
        code, out, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
        assert code == 1
        assert "dimension mismatch: b" in err
        assert out == ""


_BIG = "1" + "0" * 400  # above the float range


@pytest.mark.parametrize(
    "argv, data, code, pinned",
    [
        # Delta is 10**400, so the bound epsilon * Delta is 5 * 10**399
        (("solve", "--epsilon", "1/2"),
         {"kind": "general", "H": [[_BIG, "1"]], "b": ["1"], "w": ["1", "1"], "l": [0, 0], "u": [1, 1]},
         0, {"bound": "5" + "0" * 399, "bound_approx": None, "objective_approx": 0.0}),
        # no selection reaches b0, so the best-effort residual is 1 - b0
        (("solve", "--epsilon", "1/2"),
         {"kind": "nfold_config", "blocks": [{"D": [["1"]], "configs": [[1]], "weights": ["1"]}],
          "b0": [_BIG]},
         2, {"residual": ["-" + "9" * 400], "residual_approx": [None],
             "max_abs_residual": "9" * 400, "max_abs_residual_approx": None}),
        (("oracle",),
         {"kind": "general", "H": [["1", "1"]], "b": ["1"], "w": [_BIG, _BIG], "l": [0, 0], "u": [1, 1]},
         0, {"optimum": _BIG, "optimum_approx": None}),
    ],
)
def test_a_value_outside_the_float_range_approximates_to_null(tmp_path, capsys, argv, data, code, pinned):
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({"format": 1, **data}))
    got, out, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
    assert (got, err) == (code, "")
    report = json.loads(out)
    assert {key: report[key] for key in pinned} == pinned


def test_usage_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--input", "/nonexistent.json", "--epsilon", "1/2")
    assert code == 1
    # unknown flags, such as the removed --seed and --workers, are usage errors
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "2", "--output", str(inst)])
    for argv in (
        ("solve", "--epsilon", "1/2", "--seed", "1"),
        ("solve", "--epsilon", "1/2", "--workers", "2"),
        ("oracle", "--workers", "2"),
    ):
        code, _, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
        assert code == 1
        assert "unrecognized arguments" in err
    # limits that admit no search are usage errors, not resource limits
    for flag, value, message in (
        ("--node-limit", "0", "node_limit must be positive"),
        ("--node-limit", "-3", "node_limit must be positive"),
        ("--refine-limit", "-1", "refinement_limit must be nonnegative"),
    ):
        code, _, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2", flag, value)
        assert code == 1
        assert message in err
    for value in ("0", "-5"):
        code, _, err = run(capsys, "oracle", "--input", str(inst), "--cap", value)
        assert code == 1
        assert "cap must be positive" in err
    # malformed or nonpositive rationals in flags are usage errors naming the value
    for flag, value, message in (
        ("--epsilon", "0.5", "error: --epsilon: malformed rational '0.5'"),
        ("--delta", "abc", "error: --delta: malformed rational 'abc'"),
        ("--delta", "0", "error: delta_override must be positive"),
        ("--delta", "-1", "error: delta_override must be positive"),
    ):
        argv = ["solve", "--input", str(inst), "--epsilon", "1/2", flag, value]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == message + "\n"
    # an input that is a directory, not UTF-8, or nested too deeply to
    # decode is a usage error too
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (tmp_path, binary, deep):
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 1
        assert err.startswith("error: ")


def test_the_parser_defaults_are_the_library_defaults():
    # the limits a plain solve or oracle run uses are those of ApproxParams
    # and of the brute-force oracle, not copies of them
    parser = cli.build_parser()
    solve = parser.parse_args(["solve", "--input", "x.json", "--epsilon", "1/2"])
    params = ApproxParams.build(Rat(1, 2))
    assert (solve.refine_limit, solve.node_limit) == (params.refinement_limit, params.node_limit)
    oracle = parser.parse_args(["oracle", "--input", "x.json"])
    assert oracle.cap == inspect.signature(brute_force).parameters["cap"].default


def test_solver_invariant_failure_is_reported(tmp_path, capsys, monkeypatch):
    # a broken internal guarantee is a classified error, not a traceback
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "2", "--output", str(inst)])
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    code, _, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2")
    assert code == 5
    assert err.startswith("internal error: ")
    assert "iteration cap" in err


def test_running_out_of_memory_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # a pipeline step that cannot allocate ends in one classified line, not
    # a traceback; the step raises at once, so nothing large is allocated
    inst = tmp_path / "s.json"
    main(["gen", "--kind", "scheduling", "--seed", "1", "--output", str(inst)])

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver_config, "coupled_model", no_memory)
    code, out, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/5")
    assert (code, out, err) == (cli.EXIT_RESOURCE, "", "resource limit: out of memory\n")


# a JSON integer literal of 5000 digits, past the interpreter's limit of 4300
# digits for text-to-int conversion; json.dump cannot write it either
_HUGE_LITERAL = "1" * 5000


def test_an_integer_literal_past_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "g.json"
    inst.write_text(
        '{"format": 1, "kind": "general", "H": [["1"]], "b": ["1"], "w": ["1"],'
        f' "l": [0], "u": [{_HUGE_LITERAL}]}}'
    )
    for argv in (["check"], ["oracle"], ["solve", "--epsilon", "1/2"]):
        code, out, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("error: $: invalid JSON: ") and err.count("\n") == 1
        # the remedy it names is one a command-line user can take
        assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS" in err
        assert "sys.set_int_max_str_digits" not in err


def test_a_report_value_past_the_digit_limit_is_printed_exactly(tmp_path, capsys):
    # every input is under the limit, but the residual is
    # 1/(10^3000 + 1) - 1/(10^3000 - 1) = -2/(10^6000 - 1), 6000 digits
    inst = tmp_path / "g.json"
    big = 10**3000
    inst.write_text(json.dumps({
        "format": 1, "kind": "general", "H": [[f"1/{big + 1}"]], "b": [f"1/{big - 1}"],
        "w": ["1"], "l": [1], "u": [1],
    }))
    code, out, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1")
    assert (code, err) == (cli.EXIT_OK, "")
    report = json.loads(out)
    assert report["residual"] == ["-2/" + "9" * 6000]
    assert report["max_abs_residual"] == "2/" + "9" * 6000
    # nonzero values too close to 0 for a float approximate to null, not 0.0
    assert report["bound"] != "0" and report["bound_approx"] is None
    assert report["residual_approx"] == [None]
    assert report["max_abs_residual_approx"] is None


def test_solve_worked_example_with_oracle(tmp_path, capsys):
    inst = tmp_path / "g1.json"
    inst.write_text(
        json.dumps(
            {
                "format": 1,
                "kind": "general",
                "H": [["2", "3", "5"]],
                "b": ["10"],
                "w": ["1", "1", "1"],
                "l": [0, 0, 0],
                "u": [3, 3, 2],
            }
        )
    )
    code = main(["solve", "--input", str(inst), "--epsilon", "1/5", "--oracle-check"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    from fractions import Fraction

    assert Fraction(report["objective"]) <= Fraction(report["oracle"]["optimum"])
    assert Fraction(report["max_abs_residual"]) <= Fraction(report["bound"])
    assert report["bound"] == "1"  # eps * Delta = (1/5) * 5


def test_failed_oracle_check_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # an oracle optimum below the solver's objective contradicts the solver
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--m", "1", "--n", "3", "--seed", "9", "--output", str(inst)])
    capsys.readouterr()
    monkeypatch.setattr(
        cli, "brute_force", lambda inst: SimpleNamespace(feasible=True, optimum=Rat(-1000))
    )
    code, out, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/5", "--oracle-check")
    assert code == 5
    report = json.loads(out)
    assert report["status"] == "ok" and report["oracle"]["check_passed"] is False
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: oracle check failed: objective ")


@pytest.mark.parametrize(
    "kind, flag, value",
    [
        ("general", "--m", "0"),
        ("general", "--n", "0"),
        ("nfold-config", "--blocks", "0"),
        ("nfold-nonneg", "--s", "0"),
        ("nfold-config", "--t", "0"),
        ("general", "--delta-max", "-1"),
    ],
)
def test_gen_rejects_sizes_below_their_least(tmp_path, capsys, kind, flag, value):
    out_file = tmp_path / "g.json"
    code, out, err = run(
        capsys, "gen", "--kind", kind, flag, value, "--seed", "1", "--output", str(out_file)
    )
    least = 0 if flag == "--delta-max" else 1
    assert (code, out, err) == (1, "", f"error: {flag} must be at least {least}\n")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cmax": "x"}, "$.cmax: malformed rational 'x'"),
        ({"jobs": [[1, 2], [3]]}, "dimension mismatch: processing times"),
        ({"costs": [[0, 1]]}, "dimension mismatch: costs"),
        ({"jobs": [[1, 1.5], [2, 1]]}, "$.jobs[0][1]: floating-point values are not allowed"),
        ({"jobs": "ab"}, "$.jobs: expected a list of rows"),
        ({"cmax": -2}, "scheduling data must be nonnegative"),
        ({"cmax": True}, "$.cmax: boolean values are not allowed"),
    ],
)
def test_malformed_scheduling_file_exits_one(tmp_path, capsys, fields, message):
    data = {"format": 1, "kind": "scheduling", "jobs": [[1, 2], [2, 1]], "cmax": 2,
            "costs": [[0, 1], [1, 0]]}
    data.update(fields)
    inst = tmp_path / "s.json"
    inst.write_text(json.dumps(data))
    for argv in (("check",), ("oracle",), ("solve", "--epsilon", "1/2")):
        code, out, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"kind": "general", "H": [[]], "b": ["1"], "w": [], "l": [], "u": []},
            "dimension mismatch: H must be at least 1x1",
        ),
        (
            {"kind": "nfold_config", "b0": ["1"], "blocks": [
                {"D": [["1", "2"]], "configs": [[0, 1]], "weights": ["1", "1"]},
                {"D": [["1"]], "configs": [[0]], "weights": ["1"]},
            ]},
            "dimension mismatch: block 1 shape; dimension mismatch: block 1 weights; "
            "dimension mismatch: block 1 config length",
        ),
        (
            {"kind": "nfold_config", "b0": ["1"],
             "blocks": [{"D": [[]], "configs": [[]], "weights": []}]},
            "dimension mismatch: blocks must be at least 1x1",
        ),
        (
            {"kind": "nfold_nonneg", "b0": ["1", "1"], "blocks": [
                {"A": [["1"]], "D": [["1"]], "bi": ["1", "1"], "u": [1], "w": ["1"]},
            ]},
            "dimension mismatch: block 0 vectors; dimension mismatch: b0",
        ),
        (
            {"kind": "nfold_nonneg", "b0": ["1"], "blocks": [
                {"A": [["1"]], "D": [["1"]], "bi": ["1"], "u": [1], "w": ["1"]},
                {"A": [["1", "1"]], "D": [["1", "1"]], "bi": ["1"], "u": [1, 1], "w": ["1", "1"]},
            ]},
            "dimension mismatch: block 1 shape",
        ),
        (
            {"kind": "nfold_nonneg", "b0": ["1"],
             "blocks": [{"A": [[]], "D": [[]], "bi": ["1"], "u": [], "w": []}]},
            "dimension mismatch: blocks must be at least 1x1",
        ),
    ],
)
def test_misshapen_instance_files_exit_one(tmp_path, capsys, data, message):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"format": 1, **data}))
    for argv in (("check",), ("oracle",), ("solve", "--epsilon", "1/2")):
        code, out, err = run(capsys, argv[0], "--input", str(inst), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_an_ok_solve_of_an_infeasible_instance_passes_a_vacuous_oracle_check(tmp_path, capsys):
    # 2 x = 1 has no integer solution in [0, 1], but x = 0 misses it by 1,
    # within the bound epsilon * Delta = 1
    inst = tmp_path / "g.json"
    inst.write_text(json.dumps(
        {"format": 1, "kind": "general", "H": [["2"]], "b": ["1"], "w": ["1"], "l": [0], "u": [1]}
    ))
    code, out, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--oracle-check")
    report = json.loads(out)
    assert (code, report["status"]) == (0, "ok")
    assert report["oracle"]["feasible"] is False
    assert report["oracle"]["objective_guarantee_vacuous"] is True
    assert report["oracle"]["check_passed"] is True


# one small valid instance file per kind
VALID_FILES = {
    "general": instance_to_dict(gen_general(random.Random(1), m=2, n=3)),
    "nfold_config": instance_to_dict(gen_config(random.Random(2), n_blocks=2)),
    "nfold_nonneg": instance_to_dict(gen_nonneg(random.Random(3), n_blocks=2)),
    "scheduling": gen_scheduling(random.Random(4), n_jobs=3, m_machines=2, with_costs=True),
}


def _nodes(node, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _nodes(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _negated(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return -value
    try:
        return str(-parse_rat(value))
    except ValueError:
        return None


# stands in the data for _HUGE_LITERAL, which json.dumps cannot write
_HUGE = "huge integer literal"


@st.composite
def _mutated_files(draw):
    """A valid file of some kind with one mutation: a key dropped, a value
    swapped for a float, a boolean, null, "x", a nested list, a 5000-digit
    integer literal (``_HUGE``, which the test writes into the file text) or
    a 400-digit integer, a row made ragged, or a number negated."""
    data = copy.deepcopy(VALID_FILES[draw(st.sampled_from(sorted(VALID_FILES)))])
    nodes = list(_nodes(data))
    mutation = draw(st.sampled_from(["drop", "swap", "ragged", "negate"]))
    if mutation == "drop":
        targets = [p + (k,) for p, node in nodes if isinstance(node, dict) for k in sorted(node)]
    elif mutation == "swap":
        targets = [p for p, _ in nodes if p]
    elif mutation == "ragged":
        targets = [
            p + (i,) for p, node in nodes
            if isinstance(node, list) and node and all(isinstance(r, list) and r for r in node)
            for i in range(len(node))
        ]
    else:
        targets = [
            p for p, node in nodes
            if not isinstance(node, (dict, list)) and _negated(node) not in (None, node)
        ]
    *parent_path, last = draw(st.sampled_from(targets))
    parent = data
    for step in parent_path:
        parent = parent[step]
    if mutation == "drop":
        del parent[last]
    elif mutation == "swap":
        values = [1.5, True, None, "x", [[1]], _HUGE, 10**399]
        if parent_path == [] and last == "cmax":
            # the scheduling reduction builds cmax + 1 slack configurations
            # per machine, so a 400-digit cmax never finishes (ROADMAP item 2)
            values.pop()
        parent[last] = draw(st.sampled_from(values))
    elif mutation == "ragged" and draw(st.booleans()):
        parent[last].append(parent[last][-1])
    elif mutation == "ragged":
        parent[last].pop()
    else:
        parent[last] = _negated(parent[last])
    return data


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_mutated_files())
def test_mutated_instance_files_are_classified(data):
    # every outcome is a documented exit code; no exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data).replace(json.dumps(_HUGE), _HUGE_LITERAL))
        for argv in (["check"], ["oracle"], ["solve", "--epsilon", "1/2"]):
            code, _, err = _main([argv[0], "--input", path, *argv[1:]])
            assert code in (0, 1, 2, 3, 4, 5)
            if code == 1:
                assert err.startswith("error: "), err


PARSE_ERRORS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "parse_errors.txt")


def _json_path(path):
    return "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


def _single_faults():
    """(label, file) for every single fault of every valid file: each non-root
    node swapped for 1.5, true, null, "x" or [[1]], dropped from its object,
    and, for a non-empty list, grown by a copy of its last item or shrunk by
    one item."""
    for kind in sorted(VALID_FILES):
        data = VALID_FILES[kind]
        nodes = dict(_nodes(data))
        for path, node in nodes.items():
            if not path:
                continue
            edits = [f"swap {json.dumps(value)}" for value in (1.5, True, None, "x", [[1]])]
            if isinstance(nodes[path[:-1]], dict):
                edits.append("drop")
            if isinstance(node, list) and node:
                edits += ["grow", "shrink"]
            for edit in edits:
                faulty = copy.deepcopy(data)
                *parent_path, last = path
                parent = faulty
                for step in parent_path:
                    parent = parent[step]
                if edit.startswith("swap "):
                    parent[last] = json.loads(edit[5:])
                elif edit == "drop":
                    del parent[last]
                elif edit == "grow":
                    parent[last].append(copy.deepcopy(parent[last][-1]))
                else:
                    parent[last].pop()
                yield f"{kind} {_json_path(path)} {edit}", faulty


def parse_outcome_lines():
    """One line per single fault: its label and what parsing the file gives,
    ``ok`` or ``<error type>: <message>``."""
    lines = []
    for label, data in _single_faults():
        try:
            instance_from_dict(data)
            outcome = "ok"
        except Exception as exc:  # the pinned outcome names any exception type
            outcome = f"{type(exc).__name__}: {exc}"
        lines.append(f"{label} -> {outcome}")
    return lines


def test_single_fault_parse_outcomes_are_pinned():
    """Every single-fault file parses, or fails with the message, pinned in
    ``tests/data/parse_errors.txt``; a change that alters a message on
    purpose regenerates the file with the command at the end of this module."""
    with open(PARSE_ERRORS, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    lines = parse_outcome_lines()
    labels = [line.split(" -> ")[0] for line in lines]
    assert labels == [line.split(" -> ")[0] for line in pinned], "the cases differ"
    differ = [got for got, want in zip(lines, pinned) if got != want]
    assert not differ, f"{len(differ)} outcomes differ: " + "; ".join(differ)


def test_python_m_nearfeas_runs_from_a_checkout(tmp_path):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "1", "--output", str(inst)])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "nearfeas", "check", "--input", str(inst)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_importing_the_main_module_runs_nothing(monkeypatch, capsys):
    # only ``python -m nearfeas`` runs the CLI; a plain import (as pkgutil
    # walks do) must neither exit nor print
    monkeypatch.delitem(sys.modules, "nearfeas.__main__", raising=False)
    module = importlib.import_module("nearfeas.__main__")
    assert module.main is main
    assert capsys.readouterr() == ("", "")


def test_each_solve_validates_its_instance_once(tmp_path, capsys, monkeypatch):
    counts = collections.Counter()

    def counted(fn):
        def wrapper(inst):
            counts[fn.__name__] += 1
            return fn(inst)

        return wrapper

    for fn in (validate_general, validate_config, validate_nonneg, validate_scheduling):
        wrapped = counted(fn)
        for name, module in list(sys.modules.items()):
            if name.startswith("nearfeas") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapped)
    # the scheduling core is a second instance: the configuration pipeline
    # validates it, once
    expected = {
        "general": {"validate_general": 1},
        "nfold_config": {"validate_config": 1},
        "nfold_nonneg": {"validate_nonneg": 1},
        "scheduling": {"validate_scheduling": 1, "validate_config": 1},
    }
    for kind, data in VALID_FILES.items():
        inst = tmp_path / f"{kind}.json"
        inst.write_text(json.dumps(data))
        counts.clear()
        code, _, _ = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2")
        assert code in (0, 2, 3)
        assert counts == expected[kind], kind


if __name__ == "__main__":
    # regenerates tests/data/parse_errors.txt:
    #   PYTHONPATH=src python3 tests/test_cli.py > tests/data/parse_errors.txt
    print("\n".join(parse_outcome_lines()))
