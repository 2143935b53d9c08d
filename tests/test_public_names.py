"""Every name that the package and its modules export through ``__all__``
resolves, so moving a helper between modules cannot drop a public name; and
every module name README.md cites resolves, so renaming or deleting a helper
cannot leave the documentation pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import duality_lab

MODULES = ["duality_lab"] + [
    f"duality_lab.{info.name}"
    for info in pkgutil.iter_modules(duality_lab.__path__)
    if info.name != "__main__"
]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def readme_references():
    """The whole backticked ``module.name`` spans of README.md outside its
    code fences whose module is a package module, file names such as
    ``verify.py`` left out."""
    modules = {name.rpartition(".")[2] for name in MODULES[1:]}
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    spans = re.findall(r"`([^`]+)`", text)
    return [
        span.split(".")
        for span in spans
        if re.fullmatch(r"\w+\.\w+", span) and span.split(".")[0] in modules and not span.endswith(".py")
    ]


def test_readme_names_resolve():
    references = readme_references()
    assert len(references) >= 30  # the parser still finds them
    missing = [
        f"{module}.{name}"
        for module, name in references
        if not hasattr(importlib.import_module(f"duality_lab.{module}"), name)
    ]
    assert not missing


def test_readme_dimension_limit_matches_the_code():
    from duality_lab import ensemble

    pattern = r"dimension\s+above\s+(\d+)\s+\(`ensemble\._EMULATED_MAX_DIMENSION`\)"
    assert re.findall(pattern, README.read_text()) == [str(ensemble._EMULATED_MAX_DIMENSION)]
