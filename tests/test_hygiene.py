"""Import and dead-code hygiene of the package and the tests, checked
with the stdlib ast module: every imported name is used, every name the
package exports exists, and every function, class and method of the
package is referenced inside the package.  numpy stays off the cold
path: no module but _kernels imports it (or _kernels) at module level,
and a fresh interpreter that imports madics or runs a verb that does
not scan ends without numpy in sys.modules.  One scan kernel: numpy's
popcount and bincount appear only in _kernels._distance_counts."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_poly_imports_only_errors():
    # poly stays pure Python: no numpy and nothing else on the cold path
    tree = ast.parse((ROOT / "src" / "madics" / "poly.py").read_text(
        encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules <= {".errors", "__future__"}, sorted(modules)


def _module_level_imports(tree):
    """Top-level module names imported outside any function body."""
    names = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and not node.module:  # from . import x
                names.update(a.name for a in node.names)
            else:
                names.add((node.module or "").split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.stem != "_kernels"],
                         ids=lambda p: p.name)
def test_numpy_only_imported_inside_functions(path):
    # the scan functions of analysis import numpy and _kernels lazily;
    # a module-level import anywhere would load numpy on every CLI call
    tree = ast.parse(path.read_text(encoding="utf-8"))
    heavy = _module_level_imports(tree) & {"numpy", "_kernels"}
    assert not heavy, f"{path.name} imports {sorted(heavy)} at module level"


_CHILD = """
import contextlib, io, json, sys
from madics.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "out": out.getvalue()}))
"""


def _python(*args):
    """Run a fresh interpreter that imports madics from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True, timeout=120)


def _fresh(*argv):
    """Run madics.cli.main on argv in a fresh interpreter."""
    proc = _python("-c", _CHILD, *argv)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_madics_leaves_numpy_unloaded():
    _python("-c", "import sys, madics, madics.cli\n"
                  "assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("argv", [
    ("classes", "--p", "13", "--m", "3", "--b", "2"),
    ("field-code", "--q", "2", "--p", "89", "--m", "2", "--family",
     "even-I", "--index", "0"),
    ("ring-code", "--q", "3", "--s", "3", "--p", "13", "--m", "4", "--a",
     "7", "--family", "even-I", "--slots", "1,2,3", "--chain"),
    ("griesmer", "--n", "13", "--k", "3", "--d", "9", "--q", "3"),
    ("export", "--q", "3", "--p", "13", "--m", "4", "--family", "even-I",
     "--index", "0", "--skip-distance", "--out", None),
], ids=lambda argv: argv[0])
def test_cold_verbs_leave_numpy_unloaded(argv, tmp_path):
    argv = [str(tmp_path / "code.json") if a is None else a for a in argv]
    res = _fresh(*argv, "--output", "json")
    assert res["code"] == 0
    assert res["numpy"] is False


def test_distance_loads_numpy_and_scans():
    res = _fresh("distance", "--q", "2", "--p", "23", "--m", "2",
                 "--family", "odd-I", "--index", "0", "--output", "json")
    assert res["code"] == 0
    assert res["numpy"] is True
    rep = json.loads(res["out"])["code"]["distance_report"]
    assert (rep["n"], rep["k"], rep["d_min"]) == (23, 12, 7)


def _scan_calls(tree):
    """(enclosing top-level function, name) of every use of numpy's
    bitwise_count or bincount, attribute or imported name."""
    names = {"bitwise_count", "bincount"}
    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append((where, node.attr))
            elif isinstance(node, ast.ImportFrom):
                found.extend((where, a.name) for a in node.names
                             if a.name in names)
    return found


def test_one_scan_kernel():
    # every scan histograms its weights in _kernels._distance_counts, so
    # popcounts and bincounts appear nowhere else in the package and a
    # second scan loop cannot come back unnoticed
    stray, kernel = [], []
    for path in SOURCES:
        for where, name in _scan_calls(ast.parse(
                path.read_text(encoding="utf-8"))):
            if (path.stem, where) == ("_kernels", "_distance_counts"):
                kernel.append(name)
            else:
                stray.append(f"{path.stem}.{where}: {name}")
    assert not stray, f"popcount or bincount outside the kernel: {stray}"
    assert sorted(kernel) == ["bincount", "bitwise_count"]
