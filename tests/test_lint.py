"""Every name a colorcert module imports is used by that module, every
module-level private function or class is used somewhere in the
package, every function reads each of its parameters, and no module
holds an `assert`; brute force kept only for cross-checking lives in
the tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "colorcert"


def _unused_imports(tree):
    """(line, name) of each import binding the module never reads.

    `__future__` imports are directives, not bindings; a name listed in
    the module's `__all__` is a re-export and counts as used.
    """
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_check_sees_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from . import kept\n"
        "__all__ = ['kept']\n"
        "def f():\n"
        "    from itertools import chain\n"
        "    return dumps\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "parse"), (7, "chain")]


def _unreferenced_private_defs(trees):
    """(module, name) of each module-level `_private` function or class
    that no module reads outside the definition itself.

    A read is a name, an attribute or an imported name; a recursive
    call inside the definition's own body does not count.
    """
    defs = []
    reads = set()  # (name, module, top-level statement it sits in)
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defs.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    reads.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, module, owner))
                elif isinstance(node, ast.alias):
                    reads.add((node.name, module, owner))
    return [(module, name) for module, name in defs
            if not any(r == name and (m, o) != (module, name) for r, m, o in reads)]


def test_no_unreferenced_private_defs():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_defs(trees) == []


def test_the_check_sees_unreferenced_private_defs():
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\n"
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1)\n"
            "class _Unused: pass\n"
            "def __dunder__(): pass\n"
            "def public():\n"
            "    def _nested(): pass\n"
            "    return _used()\n"
        ),
        "b.py": ast.parse(
            "from . import a\n"
            "from .a import _imported\n"
            "x = a._by_attribute\n"
        ),
    }
    assert _unreferenced_private_defs(trees) == [("a.py", "_recursive"), ("a.py", "_Unused")]


def _unread_parameters(tree):
    """(line, function, parameter) of each parameter its function never reads.

    A read anywhere in the function counts, nested functions included.
    `self` and names that start with `_` are exempt, for callbacks whose
    signature a caller fixes.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                  if p.arg != "self" and not p.arg.startswith("_") and p.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_parameters(tree) == []


def test_the_check_sees_unread_parameters():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, used, unused, *rest, key=None, **extra):\n"
        "        return used, key\n"
        "def outer(a, b, _callback_arg):\n"
        "    def inner(c):\n"
        "        return a\n"
        "    b = 1\n"
        "    return inner, lambda x, _y, z: x\n"
    )
    assert _unread_parameters(tree) == [
        (2, "m", "extra"), (2, "m", "rest"), (2, "m", "unused"),
        (4, "outer", "b"), (5, "inner", "c"), (8, "<lambda>", "z"),
    ]


def _asserts(tree):
    """Line of each `assert` statement; `python -O` strips them, so a
    correctness claim has to raise instead."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _asserts(tree) == []


def test_the_check_sees_asserts():
    tree = ast.parse(
        "assert True\n"
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
    )
    assert _asserts(tree) == [1, 4]
