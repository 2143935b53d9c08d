"""The benchmark in ``bench/`` binds package names and output digests; they
must keep resolving and reproducing.

``bench/tracing.py`` wraps each ``(module, function)`` of ``TRACED`` at run
time and ``bench/child.py`` imports names from the package, so dropping or
renaming one of them breaks traced runs or every benchmark child.
``bench/workloads.py`` gates the canonical scan on the sha256 of its CSV, so
a change to the sweep's numbers fails here before it fails the benchmark.
The files are read with ``ast``, not imported.
"""

import ast
import hashlib
import importlib
from pathlib import Path

import pytest

from duality_lab import cli

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


def _class_constants(path: Path, name: str) -> dict:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return {
                target.id: ast.literal_eval(statement.value)
                for statement in node.body
                if isinstance(statement, ast.Assign)
                for target in statement.targets
                if isinstance(target, ast.Name)
            }
    raise AssertionError(f"{path.name} defines no class {name}")


def test_canonical_scan_reproduces_the_benchmark_digest(tmp_path):
    scan = _class_constants(BENCH / "workloads.py", "Scan")
    out = tmp_path / "scan.csv"
    argv = [
        "scan", "--N", "6", "--n", "6", "--samples", str(scan["units"]),
        "--strategy", "me", "--seed", str(scan["canonical_seed"]),
        "--bins", str(scan["bins"]), "--out", str(out),
    ]  # fmt: skip
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == scan["canonical_sha256"]
