"""Every module-level import in ``src/cylab`` is used or re-exported.

A stdlib stand-in for an unused-import lint: a name bound by a
module-level import must be read somewhere in the module (string
annotations included) or be listed in the module's ``__all__``.  The
package ``__init__`` only re-exports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import cylab

SOURCES = sorted(
    p for p in Path(cylab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                out[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                out[alias.asname or alias.name] = stmt.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read(ast.parse(note.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read(tree) | _exported(tree)
    unused = {
        name: line for name, line in _imported(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom x import y, z\n__all__ = ['z']\n")
    used = _read(tree) | _exported(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["os", "y"]
