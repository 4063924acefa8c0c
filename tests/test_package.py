"""Package-wide checks: the public names, no `assert` in the library, and
verify suites under `python -O`."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import origamis

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "origamis").glob("*.py"))


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "origamis" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(origamis.__all__) == sorted(imported)
    for name in origamis.__all__:
        value = getattr(origamis, name)
        assert not isinstance(value, types.ModuleType), name


# library checks raise typed errors, never these builtins
UNTYPED = ("AssertionError", "ArithmeticError")


def _assertions(path: Path) -> list[int]:
    """Lines of `assert` statements and of `raise` of an UNTYPED error."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_assert_in_library(path):
    # `python -O` strips assert statements, so checks must raise typed errors
    assert _assertions(path) == []


def test_lint_sees_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert _assertions(bad) == [1, 2, 3]


def test_lint_sees_arithmetic_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("raise ArithmeticError('x')\nraise ArithmeticError\n"
                   "raise ValueError('z')\n")
    assert _assertions(bad) == [1, 2]


# theorem-b runs the triality labels, the Weyl group and the congruence kernel;
# theorem-b --q 5 the tau character and the S2 T2 growth test; theorem-a the
# int Gamma(4) closure, triality and the kernel on the Wollmilchsau
@pytest.mark.parametrize("suite", ["appendix-a", "theorem-a", "theorem-b",
                                   "theorem-b --q 5"])
def test_verify_under_optimize_flag(suite):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "origamis.cli", "verify", *suite.split()],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["pass"] is True
