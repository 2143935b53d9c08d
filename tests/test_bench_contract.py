"""The benchmark in ``bench/`` binds package names and output digests; they
must keep resolving and reproducing.

``bench/tracing.py`` wraps each ``(module, function)`` of ``TRACED`` at run
time and ``bench/child.py`` imports names from the package, so dropping or
renaming one of them breaks traced runs or every benchmark child.
``bench/workloads.py`` gates the canonical scan on the sha256 of its CSV, the
N = 16 census on the sha256 of its CSV and its summary line, and the
canonical ``verify`` run on its check counts and the exit code of its faulted
call, and reads the verify suites by the names in its ``SUITES``, so a change
to the sweep's numbers, the census's numbers or row format, or the verify
suites' names, order or counts fails here before it fails the benchmark. The
files are read with ``ast``, not imported.
"""

import ast
import contextlib
import hashlib
import importlib
from pathlib import Path

import pytest

from duality_lab import cli
from duality_lab.verify import SUITES, run_verification

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _constant(path: Path, name: str):
    """The literal value of the module-level assignment to ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


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


@pytest.mark.parametrize("module, function", _constant(BENCH / "tracing.py", "TRACED"))
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"duality_lab.{module}"), function))


@pytest.mark.parametrize("module, name", list(_child_imports()))
def test_child_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name)


def _class_constants(path: Path, name: str) -> dict:
    """The literal-valued class attributes of ``name``; computed ones, such as
    ``units = 2**16 - 1``, are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            constants = {}
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    with contextlib.suppress(ValueError):
                        value = ast.literal_eval(statement.value)
                        for target in statement.targets:
                            if isinstance(target, ast.Name):
                                constants[target.id] = value
            return constants
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


def test_census_reproduces_the_benchmark_digest_and_summary(tmp_path, capsys):
    census = _class_constants(BENCH / "workloads.py", "Census")
    out = tmp_path / "census.csv"
    assert cli.main(["saturation", "--N", str(census["paths"]), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == census["canonical_sha256"]
    assert capsys.readouterr().out.encode() == census["summary"]


def test_canonical_verify_reproduces_the_benchmark_counts(capsys):
    verify = _class_constants(BENCH / "workloads.py", "Verify")
    argv = [
        "verify", "--samples", str(verify["units"]), "--seed", str(verify["canonical_seed"]),
        "--N-range", "2:8",
    ]  # fmt: skip
    assert cli.main(argv) == 0
    counts = verify["canonical_checks"]
    assert len(counts) == 6
    expected = [f"{suite}: OK ({checks} checks)" for suite, checks in counts.items()]
    assert capsys.readouterr().out.splitlines() == expected
    assert cli.main(verify["fault_argv"]) == 1


def test_verify_suites_are_the_benchmark_suites():
    suites = _constant(BENCH / "workloads.py", "SUITES")
    assert SUITES == suites
    assert tuple(result.name for result in run_verification(1)) == suites
