"""Source hygiene checks that need no linter: every name a module under
src/twinsim imports is referenced in that module."""
import ast
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
