import json

from nearfeas import simplex
from nearfeas.cli import main


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


def test_solver_invariant_failure_is_reported(tmp_path, capsys, monkeypatch):
    # a broken internal guarantee is a classified error, not a traceback
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "2", "--output", str(inst)])
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    code, _, err = run(capsys, "solve", "--input", str(inst), "--epsilon", "1/2")
    assert code == 5
    assert err.startswith("internal error: ")
    assert "iteration cap" in err


def test_pipeline_mismatch_rejected(tmp_path, capsys):
    inst = tmp_path / "g.json"
    main(["gen", "--kind", "general", "--seed", "2", "--output", str(inst)])
    code, _, err = run(
        capsys, "solve", "--input", str(inst), "--epsilon", "1/2", "--pipeline", "nfold"
    )
    assert code == 1
    assert "cannot solve" in err


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
