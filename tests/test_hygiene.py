"""Import and dead-code hygiene of the package and the tests, checked
with the stdlib ast module: every imported name is used, every name the
package exports exists, and every function, class and method of the
package is referenced inside the package."""

import ast
import importlib
from pathlib import Path

import pytest

import madics

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "madics").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """{bound name: line} for every import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree):
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_package_exports_exist():
    missing = [name for name in madics.__all__ if not hasattr(madics, name)]
    assert not missing
    assert len(set(madics.__all__)) == len(madics.__all__)


def _overrides_stdlib(module, cls_name, name):
    """True when a base class outside madics defines the method, so a
    caller outside the package (argparse, say) may invoke it."""
    cls = getattr(importlib.import_module(f"madics.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("madics"))


def test_every_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert trees
    defs = (ast.FunctionDef, ast.ClassDef)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and node.name not in referenced:
                dead.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                name = getattr(item, "name", "__")
                if (isinstance(item, ast.FunctionDef)
                        and not name.startswith("__")
                        and name not in referenced
                        and not _overrides_stdlib(module, node.name, name)):
                    dead.append(f"{module}.{node.name}.{name}")
    assert not dead, f"defined but never referenced in src/madics: {dead}"
