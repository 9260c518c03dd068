"""The mutation table in ``tools/mutants.py`` still matches the code."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_mutant_snippet_occurs_exactly_once():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stale = [m.name for m in tool.MUTANTS if tool.occurrences(m) != 1]
    assert not stale, "snippets that no longer occur exactly once: " + ", ".join(stale)
