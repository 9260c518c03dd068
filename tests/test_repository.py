"""Checks on the checkout itself."""

import importlib
import importlib.util
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_tracked_file_is_ignored():
    """Generated or captured files that .gitignore lists stay out of git."""
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if out.returncode:
        pytest.skip(f"git cannot read the checkout: {out.stderr.strip()}")
    assert out.stdout == ""


def test_perfbench_hooks_resolve():
    """Every function the benchmark traces still exists where it looks for it;
    a moved or renamed one would only turn its per-layer metrics null."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for hook, module_name, attr, _ in spans.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{hook}: {module_name}.{attr} does not resolve"
