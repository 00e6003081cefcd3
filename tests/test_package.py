"""The package's export list, and what importing the CLI loads."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import treeshift


def test_all_is_sorted_complete_and_resolves():
    names = treeshift.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(treeshift, name) is not None, name
    tree = ast.parse(inspect.getsource(treeshift))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == imported


def test_star_import_carries_every_exception():
    namespace = {}
    exec("from treeshift import *", namespace)
    for name in ("ComplexityViolation", "LogOverflow", "PrecisionExhausted", "UncertifiedFloat"):
        assert isinstance(namespace[name], type) and issubclass(namespace[name], Exception), name


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is imported by the one function that needs it, so a fresh
    # interpreter importing the CLI does not pay for it
    path = [str(Path(treeshift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, treeshift.cli; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_leaves_numpy_unloaded_outside_sturmian():
    # numpy is imported by the Sturmian labeling and census functions
    # alone, so the other subcommands run in a fresh interpreter without it
    path = [str(Path(treeshift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = """
import contextlib, io, sys
import treeshift.cli as cli
runs = [["analyze", "-m", "011,111,101"], ["table"], ["golden"], ["kary"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
    loaded = "numpy" in sys.modules
    sturmian = cli.main(["sturmian", "-n", "8", "--blocks", "3"])
print(codes, loaded, sturmian)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0, 0] False 0"
