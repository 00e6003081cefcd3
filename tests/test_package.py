"""The package's export list."""

import ast
import inspect

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
