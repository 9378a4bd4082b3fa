import importlib
import pkgutil

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
