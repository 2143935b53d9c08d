"""The benchmark in ``bench/`` binds package names; they must keep resolving.

``bench/tracing.py`` wraps each ``(module, function)`` of ``TRACED`` at run
time and ``bench/child.py`` imports names from the package, so dropping or
renaming one of them breaks traced runs or every benchmark child. Both files
are read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced_pairs():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED tuple")


def _child_imports():
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("duality_lab"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("duality_lab"):
                    yield alias.name, None


@pytest.mark.parametrize("module, function", _traced_pairs())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"duality_lab.{module}"), function))


@pytest.mark.parametrize("module, name", list(_child_imports()))
def test_child_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name)
