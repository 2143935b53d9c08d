"""Every name that the package and its modules export through ``__all__``
resolves, so moving a helper between modules cannot drop a public name."""

import importlib
import pkgutil

import pytest

import duality_lab

MODULES = ["duality_lab"] + [
    f"duality_lab.{info.name}"
    for info in pkgutil.iter_modules(duality_lab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing

