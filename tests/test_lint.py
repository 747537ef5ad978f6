"""Every name a colorcert module imports is used by that module, every
module-level private function or class is used somewhere in the
package, every public one is read by the package or the benchmark or
is listed library API, every function reads each of its parameters,
and no module holds an `assert`; brute force kept only for
cross-checking lives in the tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "colorcert"
PERFBENCH = SRC.parent.parent / "perfbench"


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


def _reads(trees):
    """(name, module, top-level statement) of each read in `trees`.

    A read is a name or an attribute loaded, or an imported name; the
    statement is named by the function or class it defines, else None.
    """
    reads = set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, module, owner))
                elif isinstance(node, ast.alias):
                    reads.add((node.name, module, owner))
    return reads


def _unreferenced_private_defs(trees):
    """(module, name) of each module-level `_private` function or class
    that no module reads outside the definition itself.

    A recursive call inside the definition's own body does not count.
    """
    defs = [(module, top.name) for module, tree in trees.items() for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and top.name.startswith("_") and not top.name.startswith("__")]
    reads = _reads(trees)
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


# Library API that nothing in the package or the benchmark reads.
PUBLIC_API = {
    ("catalog.py", "catalog_entry"): "looks an orientation-count entry up by name",
    ("catalog.py", "clique_order_entry"): "looks a clique-order configuration up by name",
    ("graphs.py", "complete_graph"): "generator of K_n",
    ("graphs.py", "complete_multipartite_2t"): "generator of K_{2*t}, the tight orientation example",
    ("graphs.py", "cycle_graph"): "generator of C_n",
    ("graphs.py", "emit_edge_list"): "writer for the edge-list format the loaders read",
    ("graphs.py", "emit_graph6"): "writer for the graph6 format the loaders read",
    ("graphs.py", "empty_graph"): "generator of n isolated vertices",
    ("structure.py", "is_linear_interval"): "recognizer; strips use the end-pinned order search",
}


def _unread_public_defs(trees, readers):
    """(module, name) of each module-level public function, class or
    constant of `trees` that no module of `trees` or `readers` reads
    outside the definition itself."""
    defs = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, ast.Assign):
                names = [t.id for t in top.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defs += [(module, name) for name in names if not name.startswith("_")]
    reads = _reads(trees) | _reads({("reader", m): t for m, t in readers.items()})
    return [(module, name) for module, name in defs
            if not any(r == name and (m, o) != (module, name) for r, m, o in reads)]


def test_every_public_name_has_a_reader():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PERFBENCH.glob("*.py"))}
    # equal, not a subset: an entry that gains a reader leaves the list
    assert sorted(_unread_public_defs(trees, readers)) == sorted(PUBLIC_API)


def test_the_check_sees_unread_public_defs():
    trees = {
        "a.py": ast.parse(
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "def used():\n"
            "    return LIMIT\n"
            "def benchmarked(): pass\n"
            "def recursive(k):\n"
            "    return recursive(k - 1)\n"
            "def planted(): pass\n"
            "class Unread: pass\n"
            "def _private(): pass\n"
        ),
        "b.py": ast.parse("from .a import used\n"),
    }
    readers = {"run.py": ast.parse("x = cc.a.benchmarked\n")}
    assert _unread_public_defs(trees, readers) == [
        ("a.py", "SPARE"), ("a.py", "recursive"), ("a.py", "planted"), ("a.py", "Unread"),
    ]


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
