"""The package's exports and their callers, the README example, and what the CLI loads."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treeshift
from treeshift import cli
from treeshift.matrix import TransitionMatrix, parse_matrix
from treeshift.recurrence import TreeParams
from treeshift.sturmian import SturmianParams


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


def test_every_public_name_in_src_has_a_caller():
    # A public def or class in a module of the package must be named
    # somewhere in the package's modules, the acceptance gate or the
    # benchmark; a member that only the other tests call belongs in the
    # tests. Names are matched as names, so a member that shares its
    # name with a used one (such as a method called `children` beside
    # WordGraph.children) passes unseen.
    root = Path(__file__).resolve().parents[1]
    modules = sorted(p for p in (root / "src" / "treeshift").glob("*.py") if p.name != "__init__.py")
    callers = modules + [root / "tests" / "test_acceptance.py"] + sorted((root / "perfbench").glob("*.py"))
    defined = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name, node.asname or node.name})
    assert sorted(defined - used) == []


def test_every_private_name_in_src_is_referenced_in_src():
    # A private def or class anywhere in the package, or a module-level
    # _NAME, must be read somewhere in the package's modules: a helper
    # left behind when its caller is deleted fails here. Dunder names
    # are called by Python itself and are not checked; names are
    # matched as names, as above.
    root = Path(__file__).resolve().parents[1]
    trees = [ast.parse(p.read_text()) for p in sorted((root / "src" / "treeshift").glob("*.py"))]
    defined = set()
    used = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert sorted(private - used) == []


def test_readme_library_example_runs():
    # the one python block under "## Library" prints the values its comments give
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = [line.split() for line in out.getvalue().splitlines()]
    assert len(lines) == 3
    assert lines[0][0].startswith("0.5088988")
    assert lines[1][0].startswith("1.618") and lines[1][1].startswith("0.7218")
    assert lines[2] == ["2306"]


def _readme_commands() -> list[str]:
    """The lines of the one sh block under "## Command line", comments left out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


README_COMMANDS = _readme_commands()


def test_readme_command_block_holds_only_treeshift_commands():
    assert README_COMMANDS
    assert all(line.startswith("treeshift ") for line in README_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(line, tmp_path, capsys):
    # each README command exits 0 with nothing on stderr; @matrix.json
    # names a file written here
    (tmp_path / "matrix.json").write_text("[[0, 1, 1], [1, 1, 1], [1, 0, 1]]\n")
    argv = [
        f"@{tmp_path / 'matrix.json'}" if arg == "@matrix.json" else arg
        for arg in shlex.split(line, comments=True)[1:]
    ]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out


def test_root_holds_the_readme_library_names_and_every_exception():
    # the package root is the import path of the names the README's
    # "Library" example imports and of each exception class a module
    # defines; every other name is imported from its own module alone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    library = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "treeshift"
        for alias in node.names
    }
    exceptions = set()
    for info in pkgutil.iter_modules(treeshift.__path__):
        module = importlib.import_module(f"treeshift.{info.name}")
        exceptions.update(
            name
            for name, value in vars(module).items()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        )
    assert library and exceptions
    assert treeshift.__all__ == sorted(library | exceptions)


def test_star_import_carries_every_exception():
    namespace = {}
    exec("from treeshift import *", namespace)
    for name in ("ComplexityViolation", "LogOverflow", "PrecisionExhausted", "UncertifiedFloat"):
        assert isinstance(namespace[name], type) and issubclass(namespace[name], Exception), name


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is a test-only oracle: the golden power bounds are decided
    # in integers, so a fresh interpreter that imports the CLI and runs
    # a golden report never loads it
    path = [str(Path(treeshift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = """
import contextlib, io, sys
import treeshift.cli as cli
loaded = "mpmath" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["golden", "-n", "10", "--format", "json"])
print(loaded, code, "mpmath" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False 0 False"


def test_imports_match_declared_dependencies():
    # every module the package imports, nested imports included, is
    # relative, in the standard library or a declared dependency, and
    # every declared dependency is imported; the list is read with a
    # regex, since tomllib arrived only in Python 3.11
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(), re.M | re.S)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))
    imported = set()
    for path in sorted((root / "src" / "treeshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert sorted(third_party - declared) == []
    assert sorted(declared - third_party) == []


def test_cli_leaves_numpy_unloaded_outside_sturmian():
    # numpy is imported only to expand a word graph into labels and to
    # census a label array, so the other subcommands, and lex sturmian
    # in table and CSV format, whose census runs on the word graph, run
    # in a fresh interpreter without it; lex JSON prints every label,
    # which expands them
    path = [str(Path(treeshift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = """
import contextlib, io, sys
import treeshift.cli as cli
lex = ["sturmian", "-n", "20", "--blocks", "6"]
runs = [["analyze", "-m", "011,111,101"], ["table"], ["golden"], ["kary"],
        ["sturmian"], ["sturmian", "--format", "csv"], lex, lex + ["--format", "csv"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
    loaded = "numpy" in sys.modules
    sturmian = cli.main(["sturmian", "-n", "8", "--blocks", "3", "--format", "json"])
print(codes, loaded, sturmian, "numpy" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0] False 0 True"


def test_cli_builds_its_parser_once_per_process():
    # importing the CLI builds no parser, so the cold import stays cheap;
    # the first main call builds the top parser, the shared output flags
    # and one parser per subcommand, and later calls reuse them
    path = [str(Path(treeshift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import treeshift.cli as cli
counts = [len(built)]
runs = [
    ["kary", "-n", "6"],
    ["golden", "-n", "6", "--format", "json"],
    ["sturmian", "-n", "6", "--format", "csv"],
    ["analyze", "-m", "11,10", "-n", "4", "--format", "table"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        code = cli.main(argv)
        counts.append(len(built) if code == 0 else None)
print(*counts)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "7", "7", "7", "7"]


def test_validating_classes_keep_their_contract():
    # what callers rely on: a matrix is read-only and hashes by value,
    # TreeParams keeps its defaults and keywords, and SturmianParams
    # still validates
    m = parse_matrix("11,10")
    with pytest.raises(AttributeError):
        m.rows = ((1,),)
    assert m.rows == ((1, 1), (1, 0))
    same = TransitionMatrix(((1, 1), (1, 0)))
    assert same == m and hash(same) == hash(m)
    assert TransitionMatrix(((1, 1), (1, 1))) != m
    params = TreeParams()
    assert (params.arity, params.n_max) == (2, 15)
    params = TreeParams(n_max=4, arity=3)
    assert (params.arity, params.n_max) == (3, 4)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        SturmianParams(Fraction(1), Fraction(0))
    with pytest.raises(ValueError, match="alpha_error must be nonnegative"):
        SturmianParams(alpha=Fraction(1, 3), alpha_error=Fraction(-1, 9))
    params = SturmianParams(alpha_error=Fraction(1, 9), alpha=Fraction(1, 3))
    assert (params.alpha, params.alpha_error) == (Fraction(1, 3), Fraction(1, 9))


def test_cli_loads_no_dataclasses_inspect_or_pathlib():
    # the records are NamedTuples and plain classes, and the CLI reads
    # and writes files with open(), so a cold start loads none of these;
    # -S keeps site from preloading pathlib before the check
    src = str(Path(treeshift.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = """
import contextlib, io, sys
import treeshift.cli as cli
runs = [["analyze", "-m", "011,111,101"], ["table"], ["golden"], ["kary"],
        ["sturmian", "--format", "csv"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, sorted({"dataclasses", "inspect", "pathlib"} & set(sys.modules)))
"""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0, 0, 0] []"


def test_cli_cold_start_imports_json_decimal_fractions_and_random_where_used():
    # each of these modules is imported where its one command uses it,
    # so the default forms of analyze, table and kary start without
    # them; -S keeps site from preloading random. Each moved import
    # then runs in a fresh interpreter of its own, where nothing has
    # loaded its module before the call, and gives the in-process bytes
    import numpy

    src = str(Path(treeshift.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = """
import contextlib, io, sys
import treeshift.cli as cli
runs = [["analyze", "-m", "011,111,101"], ["analyze", "-m", "011,111,101", "--format", "csv"],
        ["table"], ["kary"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, sorted({"json", "decimal", "fractions", "random"} & set(sys.modules)))
"""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0, 0] []"

    # one call per moved import, run here and in each fresh interpreter
    call = """
import contextlib, io, sys
import treeshift.cli as cli
from treeshift.matrix import parse_matrix
from treeshift.spectral import certified_radius_lower

def call(argv):
    if argv[0] == "certified_radius_lower":
        return 0, repr(certified_radius_lower(parse_matrix(argv[1])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return cli.main(argv), out.getvalue()
"""
    namespace = {}
    exec(call, namespace)
    code = call + """
module, argv = sys.argv[1], sys.argv[2:]
before = module in sys.modules
print(repr((before, *call(argv), module in sys.modules)))
"""
    # numpy's directory is put on the path, since -S leaves site-packages off
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(numpy.__file__).parents[1])]))
    sites = [
        ("json", ["analyze", "-m", "011,111,101", "-n", "6", "--format", "json"]),
        ("json", ["analyze", "-m", "[[0, 1, 1], [1, 1, 1], [1, 0, 1]]", "-n", "6"]),
        ("decimal", ["golden", "-n", "8"]),
        ("fractions", ["sturmian", "-n", "8", "--blocks", "3", "--format", "csv"]),
        ("fractions", ["certified_radius_lower", "011,111,101"]),
        ("random", ["sturmian", "--mode", "random", "-n", "6", "--blocks", "2", "--format", "csv"]),
    ]
    for module, argv in sites:
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, module, *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (argv, result.stderr)
        assert ast.literal_eval(result.stdout) == (False, *namespace["call"](argv), True), argv
