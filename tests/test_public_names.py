"""Every exported name resolves: a deletion that leaves a stale export fails here."""

import importlib
import inspect
import pkgutil

import pytest

import bardina_strip

MODULES = sorted(m.name for m in pkgutil.iter_modules(bardina_strip.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"bardina_strip.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert module.__all__ and not missing


def test_package_reexports_public_module_names():
    # each class or function the package re-exports is its module's public API
    for name, obj in vars(bardina_strip).items():
        if name.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"{name} is not in {obj.__module__}.__all__"
