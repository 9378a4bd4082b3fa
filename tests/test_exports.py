import ast
import importlib
import importlib.util
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


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer wraps exists, so no per-layer
    metric of ``perfbench/run.py --trace 1`` reads 0 for a renamed target."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracehook" / "pbtrace.py"
    spec = importlib.util.spec_from_file_location("_pbtrace_targets", path)
    pbtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pbtrace)
    missing = []
    for mod_name, attr, _, _ in pbtrace.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"trace targets that do not resolve: {missing}"
    names = {(mod, attr) for mod, attr, _, _ in pbtrace.TARGETS}
    assert {("locdistill.harness.models", "LinearLocalizer.forward"),
            ("locdistill.harness.experiments", "train"),
            ("locdistill.harness.experiments", "run_cell")} <= names
