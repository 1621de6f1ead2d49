"""A dead-code guard over the package source, by its syntax trees.

Every imported name is used by the module that imports it, every
module-level private name is used somewhere in the package, every error
type is constructed outside errors.py, and the package's __init__ imports
exactly what its __all__ exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import elective

PACKAGE = Path(elective.__file__).resolve().parent
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The names a module binds by import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                out.add(a.asname or a.name.split(".")[0])
    return out


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _exported(tree: ast.Module) -> list[str]:
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    return ast.literal_eval(value)


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names (not dunders) a module defines."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            nodes = [n for t in targets for n in ast.walk(t)]
            names = [n.id for n in nodes if isinstance(n, ast.Name)]
        else:
            continue
        out.update(n for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def test_every_imported_name_is_used_by_its_module():
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        unused = sorted(_imported(tree) - _read(tree))
        assert not unused, f"{module}.py imports {unused} and never uses them"


def test_every_private_name_is_used_in_the_package():
    read = set().union(*map(_read, TREES.values()))
    for module, tree in TREES.items():
        unused = sorted(_private_definitions(tree) - read)
        assert not unused, f"{module}.py defines {unused} and nothing uses them"


def test_the_package_imports_exactly_its_exports():
    tree = TREES["__init__"]
    exported = _exported(tree)
    assert len(exported) == len(set(exported))
    assert _imported(tree) == set(exported)
    assert set(exported) <= set(vars(elective))


def test_every_error_type_is_raised_in_the_package():
    # an error type outlives its last raiser unless something constructs it
    errors = TREES["errors"]
    defined = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    constructed = {
        node.func.id
        for module, tree in TREES.items()
        if module != "errors"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    unraised = sorted(defined - {"ElectiveError"} - constructed)
    assert not unraised, f"errors.py defines {unraised} and nothing raises them"
