"""Checks on the package source itself, read with `ast`."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jacfact"


def unused_imports(tree):
    """Names a module imports and never reads, each with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("import os, sys.path as p\nfrom .x import a, b as c\nprint(sys, a)\n")
    assert unused_imports(tree) == [(1, "os"), (1, "p"), (2, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def _package_trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def unreferenced_private_defs(trees):
    """Private functions and classes (`_name`, not `__dunder__`) that no
    module of `trees` names, as (module, line, name)."""
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and node.name not in named):
                found.append((module, node.lineno, node.name))
    return sorted(found)


def unread_parameters(tree):
    """Parameters other than `self` and `cls` that their function's body
    never reads, as (line, function, parameter)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p) for p in params
                  if p not in ("self", "cls") and p not in read]
    return sorted(found)


def test_unreferenced_private_defs_are_found():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                          "def __init__(): pass\n"),
        "b.py": ast.parse("from a import _used\nclass C:\n    def _m(self): pass\n"
                          "    def _n(self): pass\nC()._m()\n"),
    }
    assert unreferenced_private_defs(trees) == [
        ("a.py", 2, "_dead"), ("a.py", 3, "_Gone"), ("b.py", 4, "_n"),
    ]


def test_unread_parameters_are_found():
    tree = ast.parse(
        "def f(self, a, b, *rest, c=1, **kw):\n    b = a\n    return kw\n"
        "class K:\n    def m(self, cls, x):\n        return lambda y, z: (x, y)\n"
        "def g(a):\n    def inner():\n        return a\n    return inner\n"
    )
    assert unread_parameters(tree) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "rest"), (6, "<lambda>", "z"),
    ]


def test_every_private_function_and_class_is_referenced():
    assert unreferenced_private_defs(_package_trees()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text(), str(path))) == []
