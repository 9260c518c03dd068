"""Checks on the checkout itself."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import shutil
import subprocess
import sys

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


def test_every_exported_name_resolves():
    """``from nearfeas import *`` works: each name in ``__all__`` exists."""
    import nearfeas

    for name in nearfeas.__all__:
        assert hasattr(nearfeas, name), f"nearfeas.__all__ names {name}, which does not exist"


def test_structure_reference_shares_no_code_with_the_solver():
    """``tests/structure.py``, the reference for the vertex-structure checks,
    imports from the standard library only."""
    with open(os.path.join(ROOT, "tests", "structure.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "structure.py uses a relative import"
            imported.add(node.module.split(".")[0])
    assert imported
    assert imported <= sys.stdlib_module_names, sorted(imported - sys.stdlib_module_names)


def test_readme_cli_block_lists_every_option():
    """Each subcommand line of the README's CLI block (with its continuation
    lines) names every option the parser defines for that subcommand."""
    from nearfeas.cli import build_parser

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    usage = {}
    for line in block.splitlines():
        if line.startswith("nearfeas "):
            command = line.split()[1]
            usage[command] = ""
        usage[command] += line + "\n"
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(usage) == sorted(subparsers.choices)
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", usage[command]), (
                        f"README CLI block lacks {command} {option}"
                    )


def test_every_solve_parameter_has_a_flag():
    """Each ``ApproxParams`` field is set by its own ``solve`` flag, so no knob
    is left that only the library can set."""
    from nearfeas.cli import build_parser
    from nearfeas.instances import ApproxParams

    flags = {
        "epsilon": "--epsilon",
        "delta_override": "--delta",
        "refinement_limit": "--refine-limit",
        "node_limit": "--node-limit",
    }
    assert [f.name for f in dataclasses.fields(ApproxParams)] == list(flags)
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {o for a in subparsers.choices["solve"]._actions for o in a.option_strings}
    assert set(flags.values()) <= options


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in the README whose head is the package,
    one of its modules or a class defined in one (``simplex.solve_lp_vertex``,
    ``LinearProgram.matrix``) names something that exists."""
    import nearfeas

    owners = {"nearfeas": nearfeas}
    for info in pkgutil.iter_modules(nearfeas.__path__):
        module = importlib.import_module(f"nearfeas.{info.name}")
        owners[info.name] = module
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                owners[name] = obj
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    checked = 0
    for dotted in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme))):
        head, *rest = dotted.split(".")
        if head not in owners:
            continue
        owner = owners[head]
        for part in rest:
            fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
            assert hasattr(owner, part) or part in fields, f"README names {dotted}, which does not exist"
            owner = getattr(owner, part, None)
        checked += 1
    assert checked
