import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import locdistill


def _modules():
    names = [info.name for info in pkgutil.walk_packages(locdistill.__path__, "locdistill.")
             if not info.name.endswith("__main__")]
    return ["locdistill"] + names


@pytest.mark.parametrize("name", _modules())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", ["locdistill", "locdistill.harness"])
def test_package_root_binds_only_exported_names(name):
    """Every public non-module name of a package root is imported from a
    submodule whose ``__all__`` lists it, so a name dropped from a module's
    exports cannot live on through the package root."""
    package = importlib.import_module(name)
    sources = {}
    for node in ast.parse(Path(package.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                sources[alias.asname or alias.name] = f"{name}.{node.module}"
    stray = [n for n, value in vars(package).items()
             if not n.startswith("_") and not inspect.ismodule(value)
             and n not in getattr(importlib.import_module(sources.get(n, name)), "__all__", ())]
    assert not stray, f"{name} binds names no submodule exports: {stray}"
