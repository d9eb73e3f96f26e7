"""Source hygiene checks that need no linter: every name a module under
src/twinsim imports is referenced in that module, no module there imports
scipy (numpy is the one runtime dependency), every function, class and
method defined under src/twinsim is referenced somewhere in it, every
attribute assigned there is read there, and the runner sends no message,
because message traffic belongs to a twin layer."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinsim

MODULES = sorted(Path(twinsim.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line number; ``__future__`` is exempt."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, plus the strings ``__all__`` exports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in referenced_names(tree)}
    assert unused == {}, f"{path.name}: imported but never referenced: {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom json import dumps, loads as load\n"
                     "__all__ = ['dumps']\n")
    assert set(imported_names(tree)) - referenced_names(tree) == {"os", "load"}


def imported_modules(tree: ast.Module) -> dict[str, int]:
    """Top-level package of each absolute import -> line number."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules[node.module.split(".")[0]] = node.lineno
    return modules


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = imported_modules(tree).get("scipy")
    assert found is None, f"{path.name}:{found} imports scipy; the runtime needs numpy only"


def test_scipy_import_is_caught():
    tree = ast.parse("import numpy as np\nfrom . import kernel\n"
                     "def f():\n    from scipy.spatial import cKDTree\n")
    assert imported_modules(tree) == {"numpy": 1, "scipy": 4}


def test_run_leaves_scipy_spatial_unimported():
    # scipy.spatial alone added about 36 MB to a run's peak RSS
    code = ("import sys\n"
            "import twinsim.cli, twinsim.runner\n"
            "from twinsim.scenario import parse_scenario\n"
            "cfg = parse_scenario({'duration_s': 2, 'vehicles_per_rsu': 20,\n"
            "                      'periods': {'epoch_s': 1, 'index_window_s': 1}})\n"
            "assert twinsim.runner.Simulation(cfg).run().generated > 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n")
    src = str(Path(twinsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Function, class and method name -> line number; dunders are exempt."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def used_names(tree: ast.Module) -> set[str]:
    """``referenced_names`` plus every attribute read (``obj.name``)."""
    return referenced_names(tree) | {node.attr for node in ast.walk(tree)
                                     if isinstance(node, ast.Attribute)}


def unreferenced(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Definitions no module of ``trees`` uses, as ``"file:name" -> line``."""
    used = set().union(*map(used_names, trees.values()))
    return {f"{name}:{d}": line for name, tree in trees.items()
            for d, line in defined_names(tree).items() if d not in used}


# Read only from outside src/twinsim by design: ``RunResult.in_flight`` and
# ``MessageCounters.in_flight`` are the task and message conservation
# counters that the benchmark (perfbench/child.py) and the tests check.
READ_OUTSIDE_SRC = {"runner.py:in_flight", "kernel.py:in_flight"}


def test_no_unreferenced_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    found = set(unreferenced(trees)) - READ_OUTSIDE_SRC
    assert found == set(), f"defined under src/twinsim but never referenced there: {found}"


def test_unreferenced_definition_is_caught():
    trees = {"a.py": ast.parse("__all__ = ['Exported']\n"
                               "class Exported:\n"
                               "    def __init__(self): self.helper()\n"
                               "    def helper(self): pass\n"
                               "    def orphan(self): pass\n"
                               "def called(): pass\n"
                               "def lonely(): pass\n"),
             "b.py": ast.parse("from a import called\ncalled()\n")}
    assert set(unreferenced(trees)) == {"a.py:orphan", "a.py:lonely"}


def write_only(trees: dict[str, ast.Module]) -> dict[str, str]:
    """Attributes that some module of ``trees`` assigns (``x.a = ...``,
    ``x.a += ...``) and none reads as an attribute, as ``"file:line" ->
    name`` of the first assignment.  ``x.a[i] = ...`` reads ``x.a``."""
    assigned, read = {}, set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    assigned.setdefault(node.attr, f"{name}:{node.lineno}")
                else:
                    read.add(node.attr)
    return {where: attr for attr, where in assigned.items() if attr not in read}


def test_no_write_only_attributes():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    found = write_only(trees)
    assert found == {}, f"assigned under src/twinsim but never read there: {found}"


def test_write_only_attribute_is_caught():
    trees = {"a.py": ast.parse("class A:\n"
                               "    def __init__(self):\n"
                               "        self.count = 0\n"
                               "        self.seen = 0\n"
                               "        self.table = {}\n"
                               "    def bump(self):\n"
                               "        self.count += 1\n"
                               "        self.table[1] = 2\n"),
             "b.py": ast.parse("def show(a):\n    return a.seen\n")}
    assert write_only(trees) == {"a.py:3": "count"}


MESSAGE_CALLS = {"send", "send_batch", "account_batch"}


def message_calls(tree: ast.Module) -> dict[str, int]:
    """Kernel messaging calls (``x.send(...)``, ``send_batch``,
    ``account_batch``, by attribute or by name) -> line number."""
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in MESSAGE_CALLS:
                calls[name] = node.lineno
    return calls


def test_runner_sends_no_messages():
    path = Path(twinsim.__file__).parent / "runner.py"
    found = message_calls(ast.parse(path.read_text(), filename=str(path)))
    assert found == {}, f"runner.py sends messages; move them to a twin layer: {found}"


def test_runner_message_call_is_caught():
    tree = ast.parse("self.engine.send(1, ('task', t), 10, link, rng)\n"
                     "eng.send_batch(10, 100, link, deliver)\n"
                     "account_batch(2, 1, 1)\n"
                     "self.engine.schedule(5, tick)\nsender.sends += 1\n")
    assert set(message_calls(tree)) == MESSAGE_CALLS
