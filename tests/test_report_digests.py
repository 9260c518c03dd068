"""The benchmark's solve reports stay byte-identical to the pinned digests."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(ROOT, "tests", "data", "report_digests.txt")


def test_reports_match_the_pinned_digests():
    """Every call's stdout, stderr and exit code hash as pinned; a change
    that alters reports on purpose regenerates the file (see the tool)."""
    spec = importlib.util.spec_from_file_location(
        "report_digests", os.path.join(ROOT, "tools", "report_digests.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(PINNED, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    lines = tool.digest_lines()
    calls = [line.rsplit(" ", 2)[0] for line in lines]
    assert calls == [line.rsplit(" ", 2)[0] for line in pinned], "the calls differ"
    differ = [call for call, got, want in zip(calls, lines, pinned) if got != want]
    assert not differ, f"{len(differ)} reports differ, first: " + "; ".join(differ[:5])
