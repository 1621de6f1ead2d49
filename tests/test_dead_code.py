"""A dead-code and recursion guard over the package source, by its
syntax trees.

Every imported name is used by the module that imports it, every
module-level private name is used somewhere in the package, every error
type is constructed outside errors.py, the package's __init__ imports
exactly what its __all__ exports, no module but expr tells a name from a
Symbol or walks a plan, no module but inference reads a solution's
groups, and no function calls itself, directly or through others.
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


def test_only_expr_reads_a_name_as_a_symbol():
    # every other module reads a symbol argument through expr.symbols
    readers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and "str" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    }
    assert readers <= {"expr"}, f"{sorted(readers - {'expr'})} test for str"


def test_only_expr_walks_a_plan():
    # expr._fold is the one walk of a plan: another module may count the
    # slots, but reads neither them nor how many uses each has left
    readers = set()
    for module, tree in TREES.items():
        counted = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
            for arg in node.args
        }
        readers.update(
            module
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("uses", "nodes")
            and id(node) not in counted
        )
    assert readers <= {"expr"}, f"{sorted(readers - {'expr'})} walk a plan"


def test_only_inference_reads_a_solutions_groups():
    # every other module reads a solution through SolvedClass's own
    # readers; the CLI reads the indeterminate pairs for their v-names
    readers: dict[str, set[str]] = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in {
                "included", "indeterminate", "side_conditions", "excluded"
            }:
                readers.setdefault(node.attr, set()).add(module)
    assert readers.pop("indeterminate") <= {"inference", "cli"}
    assert all(modules == {"inference"} for modules in readers.values()), readers


def _call_graph() -> dict[str, set[str]]:
    """Each function of the package, by qualified name, and the package
    functions it calls: a bare name bound to a function nested in an
    enclosing one, defined in its module or imported from another module,
    and self.name in a method, for a method of the same class.  A call on
    anything else, super() included, is not followed."""
    top = {
        module: {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for module, tree in TREES.items()
    }
    graph: dict[str, set[str]] = {}
    for module, tree in TREES.items():
        bound = {name: f"{module}.{name}" for name in top[module]}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if a.name in top.get(node.module, ()):
                        bound[a.asname or a.name] = f"{node.module}.{a.name}"
        # (node, its qualified name, the names it sees, its class's methods)
        todo = [(node, f"{module}.", bound, None) for node in tree.body]
        while todo:
            node, prefix, names, methods = todo.pop()
            if isinstance(node, ast.ClassDef):
                own = {
                    n.name: f"{prefix}{node.name}.{n.name}"
                    for n in node.body
                    if isinstance(n, ast.FunctionDef)
                }
                inner = f"{prefix}{node.name}."
                todo += [(n, inner, names, own) for n in node.body]
                continue
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{prefix}{node.name}"
            body, nested = [], []
            stack = list(node.body)
            while stack:
                child = stack.pop()
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    nested.append(child)
                else:
                    body.append(child)
                    stack += ast.iter_child_nodes(child)
            sees = {**names, **{n.name: f"{name}.{n.name}" for n in nested}}
            todo += [(n, f"{name}.", sees, methods) for n in nested]
            calls = graph.setdefault(name, set())
            for call in body:
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name) and f.id in sees:
                    calls.add(sees[f.id])
                elif (
                    methods is not None
                    and isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                    and f.attr in methods
                ):
                    calls.add(methods[f.attr])
    return graph


def test_no_function_recurses():
    # every walk over a tree keeps its own stack, so depth costs no
    # interpreter stack and no input can end in a RecursionError
    graph = _call_graph()
    assert "expr.Equation.free_symbols" in graph
    assert graph["expr.Equation.free_symbols"] == {"expr.free_symbols"}
    done: set[str] = set()
    for root in graph:
        # depth-first with an explicit path; a callee on the path is a cycle
        path, todo = [], [(root, False)]
        while todo:
            name, leaving = todo.pop()
            if leaving:
                path.pop()
                done.add(name)
                continue
            assert name not in path, " -> ".join(path[path.index(name) :] + [name])
            if name in done:
                continue
            path.append(name)
            todo.append((name, True))
            todo += [(callee, False) for callee in graph.get(name, ())]
