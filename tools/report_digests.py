#!/usr/bin/env python3
"""Digests of every ``nearfeas solve`` report the benchmark asks for.

Usage, from the root of a checkout::

    python3 tools/report_digests.py > tests/data/report_digests.txt

Builds catalogs 1 and 2 of each workload in ``perfbench/workloads.py`` in a
temporary directory, runs every call through ``nearfeas.cli.main`` in
process, and prints one line per call: the workload, the catalog, the
instance file, the arguments after it, the exit code, and the sha256 of
stdout, stderr and exit code.  ``tests/test_report_digests.py`` compares this
output with ``tests/data/report_digests.txt``, so a change that alters any
report, error message or exit code shows which call it altered.  A change
that alters reports on purpose regenerates the file with the command above
and says why in ``CHANGES.md``.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGS = (1, 2)


def _workloads():
    """``perfbench/workloads.py`` as a private module: the benchmark's
    directory is not put on the import path."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines():
    """One line per solve call of every workload and catalog, in catalog order."""
    from nearfeas import cli

    workloads = _workloads()
    lines = []
    for name in workloads.WORKLOADS:
        for catalog in CATALOGS:
            with tempfile.TemporaryDirectory() as workdir:
                for call in workloads.build(name, catalog, workdir):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(call.argv))
                    # the temporary directory's name is no part of a report
                    text = "\0".join((out.getvalue(), err.getvalue(), str(code)))
                    text = text.replace(workdir + os.sep, "")
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    args = " ".join(call.argv[3:])
                    file = os.path.basename(call.argv[2])
                    lines.append(f"{name} {catalog} {file} {args} exit={code} {digest}")
    return lines


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()
