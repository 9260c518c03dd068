"""The mutation table in ``tools/mutants.py`` still matches the code."""

import ast
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_mutant_snippet_occurs_exactly_once():
    tool = _tool()
    stale = [m.name for m in tool.MUTANTS if tool.occurrences(m) != 1]
    assert not stale, "snippets that no longer occur exactly once: " + ", ".join(stale)


def test_every_mutant_test_id_names_an_existing_test():
    # read with ast, so no test runs: a renamed or deleted test would
    # otherwise show only in a full run of the tool, as a baseline failure
    tool = _tool()
    defined = {}
    missing = []
    for test_id in sorted({t for m in tool.MUTANTS for t in m.tests}):
        path, _, name = test_id.partition("::")
        full = os.path.join(ROOT, path)
        if not os.path.isfile(full):
            missing.append(test_id)
            continue
        if path not in defined:
            with open(full, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), full)
            defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if name and name.split("[")[0] not in defined[path]:
            missing.append(test_id)
    assert not missing, "test ids that name no test: " + ", ".join(missing)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["-h"], 0), (["dual-feasibility-flips-skipped", "no-such-mutant"], 2)],
)
def test_help_and_unknown_names_start_no_test_run(monkeypatch, capsys, argv, code):
    tool = _tool()

    def no_run(*args):
        raise AssertionError("a test run was started")

    monkeypatch.setattr(tool, "_pytest", no_run)
    monkeypatch.setattr(tool, "run", no_run)
    assert tool.main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.strip() == tool.__doc__.strip()
    else:
        assert "no-such-mutant" in err and "dual-feasibility-flips-skipped" not in err
