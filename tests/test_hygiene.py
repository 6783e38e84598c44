"""Import and dead-code hygiene of the package and the tests, checked
with the stdlib ast module: every imported name is used, every name the
package exports exists, and every function, class and method of the
package is referenced inside the package (a module-level one through
its own module, an import of it or ``module.name``, a method through
an attribute of anything but numpy; dunder hooks are exempt).  Every
plain class constant (name = value in a class body) is read as an
attribute, through its own class where another class's instances carry
the name.  numpy stays off the cold path: no module but _kernels
imports it (or _kernels) at module level, and a fresh interpreter that
imports madics or runs a verb that does not scan ends without numpy in
sys.modules.  Each verb loads only the layers it runs, and ``import
madics`` loads none.  cli.main is the one writer of the environment:
it sets OPENBLAS_NUM_THREADS to 1 unless the caller has, so a scanning
verb starts numpy without a BLAS worker thread.  cli.run is the one
user of the gc module, and the madics script and ``python -m
madics.cli`` both enter through it.  One scan kernel:
numpy's popcount and bincount appear only in _kernels._distance_counts,
and _kernels calls no np.unique or sort, whose first call pages in
numpy code that the peak resident size of a scan run would show.  One
code payload: only cli._code_payload builds a code verb's {command,
parameters, code} dict, and one add_argument declares --output.  One
orbit labeler: only _kernels._orbit_words calls _least_labels.  One
table builder: scan and scan_union take every grouped table from
_kernels._orbit_words, and only it and scan's low table call _words.
One exact-distance path: only analysis._smaller_side calls
_kernels.scan, _kernels.scan_union and macwilliams, reads a dual and
raises TooLarge in analysis, so field and ring codes share one side
choice and one cap check.  One distance reader: _kernels.scan and
scan_union return their counts alone, and d_min is read off a
distribution once, in analysis._smaller_side; every other
DistanceReport copies a report's d_min.  One generator construction: only
CyclicCode.generator, check_factors and gauss_periods read
field_codes.coset_factors, so a code's dual is its family partner and
not a second product of factors.  One arithmetic for the splitting
field: field_codes.coset_factors makes at most 2t products over
GF(q^t).  One arithmetic for the ring layer:
ring_codes and identities work on class-algebra spectra and reference
no poly function.  No division where codes are built and
measured: field_codes and analysis get every generator and check
polynomial as a product of coset factors and call no
polynomial division, remainder or gcd of poly.  No bare AssertionError:
a failed internal check raises errors.InternalCheckFailed, which the
CLI names with its own exit code, and no src/ line has an assert
statement or raises AssertionError itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import madics
from madics import field_codes
from madics.ffield import FieldCtx

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


def _top_level_references(trees):
    """{(module, name)} of every module-level name that a package module
    references: by its bare name in the defining module, by the name an
    import of it binds in another module, or as ``module.name``."""
    refs = set()
    for module, tree in trees.items():
        names = _used(tree)
        refs.update((module, name) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                refs.update((source, a.name) for a in node.names
                            if (a.asname or a.name) in names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                refs.add((node.value.id, node.attr))
    return refs


def _on_numpy(node):
    """True for np and for an attribute chain rooted at it (np.add)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


def test_every_definition_is_referenced():
    # a module-level function or class counts as used only through its
    # own module, an import of it or ``module.name``, so that a method
    # call of the same name, such as ctx.mul(...), cannot keep a dead
    # poly function alive.  A method counts through an attribute of any
    # object but numpy, so that neither np.add.at nor a local function
    # add can keep a dead FieldCtx.add alive.  Dunder names are hooks
    # the interpreter calls, methods and module-level ones alike (the
    # package's PEP 562 __getattr__)
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    top = _top_level_references(trees)
    referenced = {node.attr for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and not _on_numpy(node.value)}
    assert trees
    defs = (ast.FunctionDef, ast.ClassDef)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, defs) and not node.name.startswith("__")
                    and (module, node.name) not in top):
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


def _instance_names(cls):
    """The attribute names a class gives its instances: its __slots__,
    its class-body names and methods, and every self.name it stores."""
    names = {node.attr for node in ast.walk(cls)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Store)
             and getattr(node.value, "id", None) == "self"}
    for item in cls.body:
        targets = getattr(item, "targets", [getattr(item, "target", item)])
        for target in targets:
            if getattr(target, "id", None) == "__slots__":
                names.update(e.value for e in item.value.elts)
            elif isinstance(target, ast.Name):
                names.add(target.id)
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
    return names


def test_every_class_constant_is_read():
    # a plain name = value in a class body must be read as an attribute
    # in src/madics: as self.name in its own class, as Class.name, or as
    # x.name when no other class gives its instances that name, so that
    # ring.zero cannot keep a dead FieldCtx.zero alive.  Annotated
    # dataclass fields are left out: cli writes the report records whole
    # through dataclasses.asdict
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    owners = Counter(name for cls in classes for name in _instance_names(cls))

    def reads(tree):
        return {(node.attr, getattr(node.value, "id", None))
                for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}

    everywhere = set().union(*map(reads, trees))
    dead = []
    for cls in classes:
        own = reads(cls)
        dead.extend(
            f"{cls.name}.{t.id}" for item in cls.body
            if isinstance(item, ast.Assign) for t in item.targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")
            and (t.id, "self") not in own
            and not any(attr == t.id and (on == cls.name or owners[attr] == 1)
                        for attr, on in everywhere))
    assert classes
    assert not dead, f"class constants never read in src/madics: {dead}"


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
import contextlib, io, json, os, sys
from madics.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
tasks = "/proc/self/task"
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "layers": [m.split(".")[1] for m in sys.modules
                             if m.startswith("madics.")],
                  "threads": (len(os.listdir(tasks)) if os.path.isdir(tasks)
                              else None),
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "out": out.getvalue()}))
"""

# the layers a verb runs without: each verb imports only what it calls
_UNUSED = {"analysis", "ringalg", "ring_codes", "identities", "verify",
           "_kernels"}
_ABSENT = {
    "classes": _UNUSED,
    "field-code": _UNUSED,
    "ring-code": {"analysis", "identities", "verify", "_kernels"},
    "griesmer": _UNUSED - {"analysis"},
    "export": _UNUSED,
}


# the variables that size OpenBLAS's thread pool
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS")


def _python(*args, env_set=None):
    """Run a fresh interpreter that imports madics from src/, with
    env_set's variables set in its environment (None unsets one)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for name, value in (env_set or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True, timeout=120)


def _fresh(*argv, env_set=None):
    """Run madics.cli.main on argv in a fresh interpreter."""
    proc = _python("-c", _CHILD, *argv, env_set=env_set)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_madics_leaves_numpy_unloaded():
    # __init__ imports its names' home modules on first access only
    _python("-c", "import sys, madics\n"
                  "assert not [m for m in sys.modules "
                  "if m.startswith('madics.')]\n"
                  "import madics.cli\n"
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
    assert not _ABSENT[argv[0]] & set(res["layers"]), res["layers"]


def test_distance_loads_numpy_and_scans():
    res = _fresh("distance", "--q", "2", "--p", "23", "--m", "2",
                 "--family", "odd-I", "--index", "0", "--output", "json")
    assert res["code"] == 0
    assert res["numpy"] is True
    assert not {"ring_codes", "verify"} & set(res["layers"]), res["layers"]
    rep = json.loads(res["out"])["code"]["distance_report"]
    assert (rep["n"], rep["k"], rep["d_min"]) == (23, 12, 7)


_DISTANCE = ("distance", "--q", "2", "--p", "23", "--m", "2", "--family",
             "odd-I", "--index", "1", "--output", "json")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count threads")
def test_cli_scan_starts_no_blas_thread():
    # numpy starts an OpenBLAS worker per extra CPU at import unless told
    # otherwise; main tells it before the distance verb imports numpy
    res = _fresh(*_DISTANCE, env_set=dict.fromkeys(_BLAS_THREADS))
    assert (res["code"], res["numpy"]) == (0, True)
    assert res["openblas"] == "1"
    assert res["threads"] == 1


def test_cli_keeps_callers_blas_threads():
    res = _fresh(*_DISTANCE, env_set={"OPENBLAS_NUM_THREADS": "2"})
    assert (res["code"], res["numpy"]) == (0, True)
    assert res["openblas"] == "2"


def test_library_leaves_environment_alone():
    # only the CLI entry sets the variable: importing the CLI module and
    # scanning through the library change nothing in os.environ
    _python("-c", "import os\n"
                  "before = dict(os.environ)\n"
                  "import madics.cli\n"
                  "from madics import analysis, field_codes, residues\n"
                  "from madics.ffield import make_prime_field\n"
                  "system = residues.build_residue_system(23, 2)\n"
                  "code = field_codes.family_codes(\n"
                  "    system, make_prime_field(2), 'odd-I')[1]\n"
                  "assert analysis.min_distance_field(code).d_min == 7\n"
                  "assert 'numpy' in __import__('sys').modules\n"
                  "assert dict(os.environ) == before\n",
            env_set=dict.fromkeys(_BLAS_THREADS))


def _environ_writes(tree):
    """(enclosing top-level function, source) of every write to the
    process environment: an assignment to or deletion of os.environ[...],
    a mutating os.environ method, os.putenv or os.unsetenv."""
    mutators = {"setdefault", "update", "pop", "popitem", "clear",
                "__setitem__", "__delitem__"}

    def environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                or isinstance(node, ast.Name) and node.id == "environ")

    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            hit = any(isinstance(t, ast.Subscript) and environ(t.value)
                      for t in targets)
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                func = node.func
                hit = hit or (func.attr in mutators and environ(func.value)
                              or func.attr in ("putenv", "unsetenv"))
            if hit:
                found.append((where, ast.unparse(node)))
    return found


def test_only_cli_main_writes_environment():
    writes = [(path.stem, where, code) for path in SOURCES
              for where, code in _environ_writes(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert writes == [("cli", "main", "os.environ.setdefault("
                       "'OPENBLAS_NUM_THREADS', '1')")]


def _gc_uses(tree):
    """(enclosing top-level function, source) of every use of the gc
    module: an import of it or of a name from it, and every gc.<name>
    call or attribute read."""
    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                found.extend((where, f"import {a.name}") for a in node.names
                             if a.name == "gc")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append((where, ast.unparse(node)))
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name) and node.func.value.id == "gc":
                found.append((where, ast.unparse(node)))
    return found


def test_only_cli_run_touches_the_collector():
    # run freezes the collector's generations around a whole CLI process;
    # anywhere else a freeze would pin an in-process caller's garbage
    # cycles for good, and a gc.disable() would let a long verb's
    # garbage grow without bound
    uses = [(path.stem, where, code) for path in SOURCES
            for where, code in _gc_uses(
                ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == [("cli", None, "import gc"),
                    ("cli", "run", "gc.freeze()"),
                    ("cli", "run", "gc.freeze()")]


def _main_block_entry(tree):
    """Name of the function that the ``if __name__ == "__main__":``
    block passes to sys.exit."""
    for top in tree.body:
        if (isinstance(top, ast.If) and isinstance(top.test, ast.Compare)
                and ast.unparse(top.test) == "__name__ == '__main__'"):
            (stmt,) = top.body
            call = stmt.value
            assert ast.unparse(call.func) == "sys.exit"
            return call.args[0].func.id
    raise AssertionError("no __main__ block")


def test_script_and_module_share_one_entry():
    # the madics script and python -m madics.cli must run the same
    # function, so the two entries cannot drift apart
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    cli = ROOT / "src" / "madics" / "cli.py"
    entry = _main_block_entry(ast.parse(cli.read_text(encoding="utf-8")))
    assert scripts == {"madics": f"madics.cli:{entry}"}
    assert entry == "run"


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


def test_one_code_payload():
    # the four code verbs take their {command, parameters, code} payload
    # from cli._code_payload, and build_parser gives every verb the one
    # --output flag, so neither can drift apart verb by verb
    tree = ast.parse((ROOT / "src" / "madics" / "cli.py").read_text(
        encoding="utf-8"))
    builders = [getattr(top, "name", None) for top in tree.body
                for node in ast.walk(top) if isinstance(node, ast.Dict)
                and any(isinstance(key, ast.Constant) and key.value == "code"
                        for key in node.keys)]
    outputs = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "add_argument"
               and any(isinstance(arg, ast.Constant) and arg.value == "--output"
                       for arg in node.args)]
    assert builders == ["_code_payload"]
    assert len(outputs) == 1, outputs


def _callers(name):
    """module.function, for each top-level function of the package, once
    per call it makes to name, as a plain or attribute call."""
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found.extend(
                f"{path.stem}.{getattr(top, 'name', None)}"
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None),
                             getattr(node.func, "attr", None)))
    return found


def test_one_orbit_labeler():
    # every orbit is labeled in message space by _kernels._orbit_words,
    # the one caller of _least_labels, so a second orbit mechanism (a
    # rotation of packed supports) cannot come back unnoticed
    assert _callers("_least_labels") == ["_kernels._orbit_words"]


def test_one_table_builder():
    # every grouped table, the scalar orbits (projective points) and the
    # orbits of <x, scalars> alike, comes from _kernels._orbit_words: scan
    # and scan_union call it once each, scan_union folds nothing but its
    # tables by support, and only it and scan's low table tabulate
    # _words, so a second builder of points or classes cannot come back
    assert _callers("_orbit_words") == ["_kernels.scan",
                                        "_kernels.scan_union"]
    assert sorted(set(_callers("_words"))) == ["_kernels._orbit_words",
                                               "_kernels.scan"]
    assert _callers("_words").count("_kernels.scan") == 1
    tree = ast.parse((ROOT / "src" / "madics" / "_kernels.py").read_text(
        encoding="utf-8"))
    folds = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_supports"]
    assert _callers("_supports") == ["_kernels.scan_union"]
    assert folds == ["_supports(*_orbit_words(g, q, c))"]


def test_one_exact_distance_path():
    # field codes and exhaustive ring runs reach both scan kernels and
    # the MacWilliams transform through analysis._smaller_side alone,
    # which reads the duals, picks the smaller side and checks the cap
    # once for both, so a second side choice or cap cannot come back
    for name in ("scan", "scan_union", "macwilliams"):
        assert _callers(name) == ["analysis._smaller_side"], name
    assert [c for c in _callers("TooLarge")
            if c.startswith("analysis.")] == ["analysis._smaller_side"]
    tree = ast.parse((ROOT / "src" / "madics" / "analysis.py").read_text(
        encoding="utf-8"))
    duals = [top.name for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr == "dual"]
    assert duals == ["_smaller_side"]


def _own_returns(func):
    """The return statements of func outside the functions it nests."""
    todo, found = list(func.body), []
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            found.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_one_distance_reader():
    # _kernels.scan and scan_union return the kernel's counts alone, and
    # every DistanceReport takes its d_min from the one read of a
    # distribution in analysis._smaller_side or copies another report's,
    # so a second reader (a kernel-side minimum, a second read after
    # MacWilliams) cannot come back
    kernels = ast.parse((ROOT / "src" / "madics" / "_kernels.py").read_text(
        encoding="utf-8"))
    returns = {top.name: [ast.unparse(node.value.func)
                          for node in _own_returns(top)]
               for top in kernels.body if isinstance(top, ast.FunctionDef)
               and top.name in ("scan", "scan_union")}
    assert returns == {"scan": ["_distance_counts"],
                       "scan_union": ["_distance_counts"]}
    readers = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "DistanceReport"):
                    d_min = node.args[2]
                    if getattr(d_min, "attr", None) != "d_min":
                        readers.append(f"{path.stem}.{top.name}: "
                                       f"{ast.unparse(d_min)}")
                    if isinstance(d_min, ast.Name):
                        readers.extend(
                            ast.unparse(n.value) for n in ast.walk(top)
                            if isinstance(n, ast.Assign) and any(
                                getattr(t, "id", None) == d_min.id
                                for t in n.targets))
    assert readers == [
        "analysis._smaller_side: d_min",
        "next((w for w in range(1, n + 1) if counts[w]), 0)"]


def test_one_generator_construction():
    # every generator is the product of the factors of its code's zero
    # cosets, built in CyclicCode.generator: the dual is the family
    # partner, so no second product of negated factors can come back
    callers = []
    for path in SOURCES:
        tops = ast.parse(path.read_text(encoding="utf-8")).body
        defs = [(f"{path.stem}.{top.name}", top) for top in tops
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{where}.{node.name}", node) for where, top in defs
                 if isinstance(top, ast.ClassDef) for node in top.body
                 if isinstance(node, ast.FunctionDef)]
        callers.extend(
            where for where, top in defs
            if not isinstance(top, ast.ClassDef)
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and "coset_factors" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None)))
    assert sorted(callers) == ["field_codes.CyclicCode.generator",
                               "field_codes.check_factors",
                               "field_codes.gauss_periods"]


def test_kernels_call_no_unique_or_sort():
    # the scan kernel deduplicates support tables in dicts: the first
    # np.unique or np.sort call of a process pages in numpy code that the
    # peak resident size of a scan run would show
    tree = ast.parse((ROOT / "src" / "madics" / "_kernels.py").read_text(
        encoding="utf-8"))
    banned = {"unique", "sort", "argsort", "lexsort"}
    stray = [f"line {node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in banned
             or isinstance(node, ast.ImportFrom)
             and any(a.name in banned for a in node.names)]
    assert not stray, f"unique or sort in _kernels: {stray}"


@pytest.mark.parametrize("module", ["identities", "ring_codes"])
def test_identities_multiply_no_polynomials(module):
    # the ring codes and the suite build, step, compare, multiply and
    # add spectra pointwise; a poly function, a packed product above
    # all, in either would be a second arithmetic in that layer
    tree = ast.parse((ROOT / "src" / "madics" / f"{module}.py").read_text(
        encoding="utf-8"))
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
            on_poly = (isinstance(node.value, ast.Name)
                       and node.value.id == "poly")
        elif isinstance(node, ast.Name):
            name, on_poly = node.id, False
        elif isinstance(node, ast.ImportFrom):
            stray.extend(f"line {node.lineno}: import {a.name}"
                         for a in node.names
                         if a.name in ("mul_mod", "poly")
                         or (node.module or "").endswith("poly"))
            continue
        else:
            continue
        if name == "mul_mod" or on_poly:
            stray.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not stray, f"{module} uses polynomial arithmetic: {stray}"


def test_field_codes_alone_reads_the_class_algebra():
    # the Gauss periods and the class table, whose reversal is c(-k),
    # are read only where the inverse transform from_spectrum lives (and
    # the table where it is built), so the index convention of the
    # periods is written once; every other layer asks class_of
    readers = {"gauss_periods": {"field_codes"},
               "class_table": {"field_codes", "residues"}}
    stray = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found = [a.name for a in node.names if a.name in readers]
            else:
                found = [name for name in (getattr(node, "id", None),
                                           getattr(node, "attr", None))
                         if name in readers]
            stray.extend(f"{path.stem} line {node.lineno}: {name}"
                         for name in found
                         if path.stem not in readers[name])
    assert not stray, f"class algebra read outside field_codes: {stray}"


def test_analysis_multiplies_through_field_codes():
    # analysis takes every product of coset factors from
    # field_codes.product, so it needs neither poly nor functools
    tree = ast.parse((ROOT / "src" / "madics" / "analysis.py").read_text(
        encoding="utf-8"))
    imported = set(_imported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rpartition(".")[2])
    assert not imported & {"poly", "functools"}


@pytest.mark.parametrize("module", ["analysis", "field_codes"])
def test_codes_and_distances_divide_no_polynomials(module):
    # every generator and check polynomial, duals included, is a
    # product of coset factors; a division in these layers would be a
    # second route to them
    tree = ast.parse((ROOT / "src" / "madics" / f"{module}.py").read_text(
        encoding="utf-8"))
    division = {"rem", "_rem_monic", "divides", "gcd"}
    stray = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in division
                and isinstance(node.value, ast.Name)
                and node.value.id == "poly"):
            stray.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith("poly")):
            stray.extend(f"line {node.lineno}: import {a.name}"
                         for a in node.names if a.name in division)
    assert not stray, f"{module} divides polynomials: {stray}"


@pytest.mark.parametrize("q,p", [(3, 13), (2, 89), (2, 127)])
def test_coset_factors_multiply_nothing_over_the_extension(monkeypatch, q, p):
    # with the splitting field cached, the factors come from the
    # constant digits of alpha^0 .. alpha^(2t-1) and their recurrence,
    # so at most 2t products over GF(q^t) run
    ext, _ = field_codes.splitting_field(q, p)
    calls = []
    mul = FieldCtx.mul

    def counted(self, a, b):
        if self.t > 1:
            calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", counted)
    field_codes.coset_factors.__wrapped__(q, p)
    assert len(calls) <= 2 * ext.t


def test_no_bare_assertion_error():
    bare = [f"{path.name}:{node.lineno}" for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and "AssertionError" in {
                n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}]
    assert bare == []
