"""The mutation table in ``tools/mutants.py`` still matches the code."""

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


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["-h"], 0), (["phase-2-skipped", "no-such-mutant"], 2)],
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
        assert "no-such-mutant" in err and "phase-2-skipped" not in err
