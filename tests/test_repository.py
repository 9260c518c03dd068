"""Checks on the checkout itself."""

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
