"""Every exported name resolves: a deletion that leaves a stale export fails here."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _private_imports(path):
    """``(module, name)`` of each underscore name a source file imports from
    another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bardina_strip"):
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_name():
    # an underscore name is its module's own: a second user makes it public
    src = Path(bardina_strip.__file__).parent
    found = {path.name: _private_imports(path) for path in sorted(src.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}
