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


# names only the acceptance criteria call, each with the criterion that does
_ACCEPTANCE_ONLY = {
    "decay_config": "criteria 4, 5, 7 and 10 build the baseline decay from it",
    "galerkin_refinement_study": "criterion 10's refinement study",
    "RefinementStudy.monotone": "criterion 10's verdict",
    "continuous_dependence_study": "criterion 11's study",
}


def _read_names(root):
    """The names the Python sources under ``root`` read: loaded names and
    attributes, and whole strings (``perfbench`` names what it wraps by
    string), but not the strings of an ``__all__``."""
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exports = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                   for node in ast.walk(stmt.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exports):
                found.add(node.value)
    return found


def _public_api(module):
    """Each name of ``module.__all__``, and ``Class.member`` for every public
    method or property an exported class defines."""
    for name in module.__all__:
        yield name
        obj = getattr(module, name)
        if inspect.isclass(obj):
            yield from (f"{name}.{attr}" for attr, member in vars(obj).items()
                        if not attr.startswith("_") and (
                            inspect.isfunction(member)
                            or isinstance(member, (property, staticmethod, classmethod))))


def test_every_public_name_has_a_user_outside_the_tests():
    # code that nothing in the package or the benchmark uses is a deletion
    # candidate; the package's re-exports and a name's own definition are no use
    src = Path(bardina_strip.__file__).parent
    used = _read_names(src) | _read_names(src.parents[1] / "perfbench")
    unused = [qual for name in MODULES
              for qual in _public_api(importlib.import_module(f"bardina_strip.{name}"))
              if qual.rsplit(".", 1)[-1] not in used and qual not in _ACCEPTANCE_ONLY]
    assert not unused
