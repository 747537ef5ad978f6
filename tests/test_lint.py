"""Every name a colorcert module imports is used by that module, no
function imports again from a module that its file imports at module
level, every import inside a function is listed with the import cycle
it breaks, every module-level private function or class is used somewhere
in the package, every public one, every public method and every
dataclass field is read by the package or the benchmark or is listed,
every function reads each of its parameters, the package's
module-level imports form no cycle and no module imports `cli`, no
module holds an `assert`, every `raise AssertionError` sits in a
listed function, only `graphs.py` calls the raw `SimpleGraph`
constructor, only `cli.RunReport` opens files, `cli.py` declares each
option once, every function that calls itself has its depth capped by
a module constant, and only listed functions hold a `global` statement
and none a `functools` cache; brute force kept only for cross-checking
lives in the tests."""

import ast
from collections import Counter
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


def _sources(node):
    """The modules an import statement reads, relative ones with their
    leading dots; `from . import a` reads the module `.a`."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    dots = "." * node.level
    if node.module is None:
        return [dots + alias.name for alias in node.names]
    return [dots + node.module]


def _local_reimports(tree):
    """(line, module) of each import inside a function from a module that
    the file already imports at module level.

    A lazy import of a module the file does not import at the top, such
    as one that breaks an import cycle, is not flagged.
    """
    top = {m for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for m in _sources(node)}
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, m) for node in ast.walk(func)
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         for m in _sources(node) if m in top)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_local_reimports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _local_reimports(tree) == []


def test_the_check_sees_local_reimports():
    tree = ast.parse(
        "import json\n"
        "from . import kernel\n"
        "from .graphs import A\n"
        "def f():\n"
        "    import json\n"
        "    import hashlib\n"
        "    from .graphs import B\n"
        "    from .catalog import C\n"
        "    def g():\n"
        "        from .kernel import K\n"
        "class T:\n"
        "    def m(self):\n"
        "        from . import graphs\n"
    )
    assert _local_reimports(tree) == [
        (5, "json"), (7, ".graphs"), (10, ".kernel"), (13, ".graphs"),
    ]


def _function_imports(tree):
    """(function, module) of each import inside a function, the function
    named as in `_self_calling_functions` (`RunReport.emit`, `f.inner`)."""
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", owner)
            else:
                if owner is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
                    found.extend((owner, m) for m in _sources(child))
                visit(child, prefix, owner)

    visit(tree, "", None)
    return sorted(found)


# Every import inside a function, with the import cycle it breaks.  An
# import that breaks no cycle belongs at the top of its module.
LAZY_IMPORTS = {}


def test_every_lazy_import_is_listed():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    found = sorted((module,) + hit for module, tree in trees.items()
                   for hit in _function_imports(tree))
    # equal, not a subset: an import that moves to the top leaves the list
    assert found == sorted(LAZY_IMPORTS)


def test_the_check_sees_function_imports():
    tree = ast.parse(
        "import json\n"
        "try:\n"
        "    from _sha2 import sha256\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"
        "def load():\n"
        "    from .catalog import catalog\n"
        "    return catalog\n"
        "class Report:\n"
        "    def emit(self):\n"
        "        import os\n"
        "        def write():\n"
        "            from . import graphs, kernel\n"
        "        return write\n"
        "    from .paint import solve\n"
    )
    assert _function_imports(tree) == [
        ("Report.emit", "os"), ("Report.emit.write", ".graphs"), ("Report.emit.write", ".kernel"),
        ("load", ".catalog"),
    ]


def _package_imports(tree, module_level=True):
    """The package modules, as file names, that a module imports.

    `from .graphs import x` and `from . import graphs` both read
    `graphs.py`.  With `module_level`, imports inside a function or a
    class body are left out: those are the listed lazy imports, which
    run only when called, after every module has loaded.
    """
    found = set()
    tops = [top for top in tree.body if not module_level
            or not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for top in tops:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                found.update(name.split(".")[0] + ".py" for name in names)
    return found


def _import_cycles(trees):
    """The modules of `trees` that reach themselves through the
    module-level imports, in name order."""
    edges = {module: _package_imports(tree) & set(trees) for module, tree in trees.items()}
    on_cycle = []
    for start in sorted(edges):
        seen, todo = set(), list(edges[start])
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo += edges[module]
        if start in seen:
            on_cycle.append(start)
    return on_cycle


def test_the_package_imports_form_no_cycle_and_nothing_imports_the_cli():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _import_cycles(trees) == []
    # the CLI sits on top: a solver that imported it would load argparse
    # and every other solver with it
    assert [m for m, tree in trees.items() if "cli.py" in _package_imports(tree, False)] == []


def test_the_check_sees_import_cycles():
    trees = {
        "graphs.py": ast.parse("import json\nfrom dataclasses import dataclass\n"),
        "kernel.py": ast.parse("from .graphs import line_graph\nfrom .paint import play\n"),
        "paint.py": ast.parse("from . import graphs, kernel\n"),
        "structure.py": ast.parse("from .graphs import x\n"
                                  "def lazy():\n"
                                  "    from .catalog import entries\n"),
        "catalog.py": ast.parse("from .structure.sub import y\n"),
        "cli.py": ast.parse("from . import paint\n"),
        "probe.py": ast.parse("class P:\n    from .cli import main\n"),
    }
    # the function-level import of catalog closes no cycle
    assert _import_cycles(trees) == ["kernel.py", "paint.py"]
    assert _package_imports(trees["structure.py"]) == {"graphs.py"}
    assert _package_imports(trees["structure.py"], False) == {"graphs.py", "catalog.py"}
    assert _package_imports(trees["catalog.py"]) == {"structure.py"}
    assert _package_imports(trees["probe.py"]) == set()
    assert _package_imports(trees["probe.py"], False) == {"cli.py"}


def _methods(cls):
    """The functions defined directly in a class body."""
    return [item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]


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


def _attribute_reads(trees):
    """(attribute, module, class, method) of each attribute loaded in
    `trees`; the method is the function of a top-level class body that
    the load sits in, and both are None outside one."""
    reads = set()
    for module, tree in trees.items():
        for top in tree.body:
            where = {}
            if isinstance(top, ast.ClassDef):
                for method in _methods(top):
                    where.update((id(node), (top.name, method.name))
                                 for node in ast.walk(method))
            reads.update((node.attr, module) + where.get(id(node), (None, None))
                         for node in ast.walk(top)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
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


# Public methods that nothing in the package or the benchmark reads.
PUBLIC_METHODS = {
    ("catalog.py", "CatalogEntry", "low_set"):
        "the emphasized vertices of an orientation entry, read off its out-degrees",
    ("graphs.py", "Digraph", "out_degree"): "one vertex's out-degree, beside out_degrees",
    ("graphs.py", "ListSizeFn", "constant"): "the budget k at every vertex",
    ("graphs.py", "MultiGraph", "edge_count"): "the number of edge copies",
    ("graphs.py", "SimpleGraph", "complement"): "the complement graph",
    ("graphs.py", "SimpleGraph", "induced"):
        "an induced subgraph with its vertex map; the strip check reads the host's masks",
}


def _unread_public_methods(trees, readers):
    """(module, class, method) of each public method of a module-level
    class of `trees` that no module of `trees` or `readers` loads as an
    attribute of that name outside the method itself."""
    defs = [(module, top.name, method.name) for module, tree in trees.items()
            for top in tree.body if isinstance(top, ast.ClassDef)
            for method in _methods(top) if not method.name.startswith("_")]
    reads = (_attribute_reads(trees)
             | _attribute_reads({("reader", m): t for m, t in readers.items()}))
    return [(module, cls, name) for module, cls, name in defs
            if not any(r == name and (m, o, f) != (module, cls, name) for r, m, o, f in reads)]


def test_every_public_name_has_a_reader():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PERFBENCH.glob("*.py"))}
    # equal, not a subset: an entry that gains a reader leaves the list
    assert sorted(_unread_public_defs(trees, readers)) == sorted(PUBLIC_API)
    assert sorted(_unread_public_methods(trees, readers)) == sorted(PUBLIC_METHODS)


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
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.side() ** 2\n"
            "    def side(self):\n"
            "        return 1\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "    def drawn(self): pass\n"
            "    def stray(self): pass\n"
            "    def _hidden(self): pass\n"
        ),
        "b.py": ast.parse("from .a import used\na.Shape().area()\n"),
    }
    # a bare name is never a method, so the parameter `stray` reads no method
    readers = {"run.py": ast.parse("x = cc.a.benchmarked\ncc.a.Shape().drawn()\n"
                                   "def draw(stray):\n"
                                   "    return stray\n")}
    assert _unread_public_defs(trees, readers) == [
        ("a.py", "SPARE"), ("a.py", "recursive"), ("a.py", "planted"), ("a.py", "Unread"),
    ]
    assert _unread_public_methods(trees, readers) == [
        ("a.py", "Shape", "again"), ("a.py", "Shape", "stray"),
    ]


def _dataclass_fields(trees):
    """(module, class, field) of each field of a module-level class that
    `dataclass` decorates, called or not: its annotated class-body names."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"

    return [(module, top.name, item.target.id) for module, tree in trees.items()
            for top in tree.body if isinstance(top, ast.ClassDef)
            and any(is_dataclass(d) for d in top.decorator_list)
            for item in top.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def _unread_fields(trees, readers):
    """(module, class, field) of each dataclass field of `trees` that no
    module of `trees` or `readers` loads as an attribute of that name;
    a read in the class's own methods counts."""
    reads = {r[0] for r in _attribute_reads(trees)
             | _attribute_reads({("reader", m): t for m, t in readers.items()})}
    return [hit for hit in _dataclass_fields(trees) if hit[2] not in reads]


# Dataclass fields that nothing in the package or the benchmark reads.
UNREAD_FIELDS = {
    ("catalog.py", "CatalogEntry", "description"):
        "says in the source how each entry's graph is built; no command prints it",
}


def test_every_dataclass_field_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PERFBENCH.glob("*.py"))}
    # equal, not a subset: a field that gains a reader leaves the list
    assert sorted(_unread_fields(trees, readers)) == sorted(UNREAD_FIELDS)


def test_the_check_sees_unread_fields():
    trees = {
        "a.py": ast.parse(
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int\n"
            "    label: str = ''\n"
            "    LIMIT = 3\n"
            "    def norm(self):\n"
            "        return self.x\n"
            "@dataclasses.dataclass\n"
            "class Box:\n"
            "    side: int\n"
            "    spare: int\n"
            "class Plain:\n"
            "    width: int\n"
        ),
        "b.py": ast.parse("def f(p):\n    p.label = 'b'\n    return p.norm()\n"),
    }
    readers = {"run.py": ast.parse("print(box.side)\n")}
    assert _unread_fields(trees, readers) == [
        ("a.py", "Point", "y"), ("a.py", "Point", "label"), ("a.py", "Box", "spare"),
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


def _raw_simple_graph_calls(trees):
    """(module, line) of each call of the `SimpleGraph` or `Digraph`
    constructor itself, by name or as an attribute, outside `graphs.py`.

    The builders in `graphs.py` (`from_edges`, `from_arcs`, `complement`,
    `induced`, the supports, `line_graph`) check the masks they store,
    so every other module goes through one of them.
    """
    return sorted(
        (module, node.lineno) for module, tree in trees.items() if module != "graphs.py"
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and {"SimpleGraph", "Digraph"} & {getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)})


def test_only_graphs_calls_the_raw_simple_graph_constructor():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    trees.update((f"perfbench/{p.name}", ast.parse(p.read_text(), filename=str(p)))
                 for p in sorted(PERFBENCH.glob("*.py")))
    assert _raw_simple_graph_calls(trees) == []


def test_the_check_sees_raw_simple_graph_calls():
    trees = {
        "graphs.py": ast.parse("def build(n):\n    return SimpleGraph(n, (0,) * n)\n"
                               "def orient(n):\n    return Digraph(n, (0,) * n, (0,) * n)\n"),
        "kernel.py": ast.parse(
            "from . import graphs\n"
            "from .graphs import SimpleGraph\n"
            "a = SimpleGraph.from_edges(2, [(0, 1)])\n"
            "b = SimpleGraph(2, (2, 1))\n"
            "def f():\n"
            "    return graphs.SimpleGraph(1, (0,))\n"
            "ok = isinstance(a, SimpleGraph)\n"
            "c = graphs.Digraph.from_arcs(2, [(0, 1)])\n"
            "d = Digraph(2, (2, 0), (0, 1))\n"
            "e = graphs.Digraph(1, (0,), (0,))\n"
        ),
    }
    assert _raw_simple_graph_calls(trees) == [
        ("kernel.py", 4), ("kernel.py", 6), ("kernel.py", 9), ("kernel.py", 10)]



def _file_opens(trees):
    """(module, line) of each call of `open`, `io.open`, `os.open` or
    `os.fdopen` outside the methods of `cli.RunReport`.

    `RunReport.add_input` reads every input file, so its sha256 goes in
    the report, and `RunReport.emit` writes the report; no other code in
    the package touches a file.
    """
    allowed = {id(node) for module, tree in trees.items() if module == "cli.py"
               for top in tree.body if isinstance(top, ast.ClassDef) and top.name == "RunReport"
               for method in _methods(top) for node in ast.walk(method)}
    return sorted(
        (module, node.lineno) for module, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in allowed
        and (getattr(node.func, "id", None) == "open"
             or isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) in ("io", "os")
             and node.func.attr in ("open", "fdopen")))


def test_only_the_run_report_opens_files():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _file_opens(trees) == []


def test_the_check_sees_file_opens():
    trees = {
        "cli.py": ast.parse(
            "import os\n"
            "class RunReport:\n"
            "    template = open('t.json').read()\n"
            "    def add_input(self, path):\n"
            "        with open(path, 'rb') as fh:\n"
            "            return fh.read()\n"
            "    def emit(self, path):\n"
            "        os.close(os.open(path, os.O_WRONLY))\n"
            "def parse_budget(path):\n"
            "    return open(path).read()\n"
            "class Other:\n"
            "    def save(self, path):\n"
            "        return os.fdopen(os.open(path, 0))\n"
        ),
        "graphs.py": ast.parse(
            "import io\n"
            "def load(path):\n"
            "    return io.open(path)\n"
            "class RunReport:\n"
            "    def add_input(self, path):\n"
            "        return open(path)\n"
            "opened = self.open(path)\n"
        ),
    }
    assert _file_opens(trees) == [
        ("cli.py", 3), ("cli.py", 10), ("cli.py", 13), ("cli.py", 13), ("graphs.py", 3),
        ("graphs.py", 6),
    ]

def _repeated_argument_names(tree):
    """{name: calls} of each string literal passed positionally to more
    than one `add_argument` call.

    An option declared at each command that takes it can come to mean
    different things on different commands; `cli.ARGUMENTS` declares
    each once, and `--json` goes through one call for both the root
    parser and the per-subcommand parent.
    """
    names = Counter(arg.value for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "add_argument"
                    for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return {name: calls for name, calls in names.items() if calls > 1}


def test_each_cli_argument_is_declared_once():
    path = SRC / "cli.py"
    assert _repeated_argument_names(ast.parse(path.read_text(), filename=str(path))) == {}


def test_the_check_sees_repeated_argument_names():
    tree = ast.parse(
        "a.add_argument('graph')\n"
        "a.add_argument('--f', required=True, help='--delta')\n"
        "b.add_argument('graph')\n"
        "b.add_argument('--f', default='d1')\n"
        "b.add_argument('--delta', dest='graph')\n"
        "for name in ('--double', '--double'):\n"
        "    c.add_argument(name)\n"
        "sub.add_parser('graph')\n"
        "add_argument('--f')\n"
    )
    assert _repeated_argument_names(tree) == {"graph": 2, "--f": 2}


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


def _assertion_error_raises(tree):
    """(function, line) of each `raise AssertionError`.

    The function is the outermost one holding the raise, prefixed by its
    classes, as `RunReport.emit`; a raise in a nested function counts
    for the function it is nested in, and one outside any function has
    None.
    """
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, prefix + child.name)
            elif owner is None and isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", None)
            else:
                if isinstance(child, ast.Raise):
                    exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                        found.append((owner, child.lineno))
                visit(child, prefix, owner)

    visit(tree, "", None)
    return found


# Every function that raises AssertionError, with the reason.  A failed
# verification is a value (a False, a failed report item), not an error.
ASSERTION_ERRORS = {
    ("paint.py", "kernel_painter_play"):
        "the benchmark and the tests catch its 'kernel painter lost' error",
}


def test_every_assertion_error_is_listed():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    found = {(module, name) for module, tree in trees.items()
             for name, _ in _assertion_error_raises(tree)}
    # equal, not a subset: a function that stops raising leaves the list
    assert sorted(found, key=str) == sorted(ASSERTION_ERRORS)


def test_the_check_sees_assertion_error_raises():
    tree = ast.parse(
        "raise AssertionError\n"
        "def play(k):\n"
        "    def sweep():\n"
        "        raise AssertionError('lost')\n"
        "    if k:\n"
        "        raise ValueError('k')\n"
        "    return sweep\n"
        "class Cert:\n"
        "    def check(self):\n"
        "        raise AssertionError(f'{self} fails')\n"
        "def relay():\n"
        "    try:\n"
        "        return play(0)\n"
        "    except AssertionError:\n"
        "        raise\n"
        "def wrapped():\n"
        "    raise RuntimeError('x') from AssertionError\n"
    )
    assert _assertion_error_raises(tree) == [(None, 1), ("play", 4), ("Cert.check", 10)]


def _self_calling_functions(tree):
    """Qualified name of each function that calls itself by name.

    The name joins the enclosing classes and functions with dots, as
    `SimpleGraph.cliques.extend`.  A call anywhere in the body counts,
    nested functions included; a method that calls itself through
    `self.` is not seen, and neither is mutual recursion.
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.append(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(found)


# Every function that calls itself, with the module constants whose
# ValueError cap bounds its depth far below Python's recursion limit.
# A recursion whose depth grows with the input has to be a loop instead.
RECURSION_CAPS = {
    ("discharging.py", "_place"):
        ([("discharging.py", "MAXCUT_EXHAUSTIVE_VERTICES")], "one level per vertex of the host"),
    ("kernel.py", "is_f_KP.place"):
        ([("kernel.py", "F_KP_VERTICES")], "one level per edge of a graph on at most 8 vertices"),
    ("kernel.py", "_search_star_orders.place"):
        ([("kernel.py", "STAR_ORDER_DEPTH")], "one level per root vertex"),
    ("kernel.py", "_search_star_orders.star_orders.extend"):
        ([("kernel.py", "STAR_ORDER_DEPTH")], "one level per edge copy at one root vertex"),
    ("paint.py", "_list_colorer.colorable"):
        ([("paint.py", "PAINTABLE_VERTICES")], "one level per vertex; only is_f_choosable calls it"),
    ("paint.py", "_canonical_search.choose_lists"):
        ([("paint.py", "PAINTABLE_VERTICES")], "one level per vertex; only is_f_choosable calls it"),
    ("paint.py", "kernel_painter_play.sweep"):
        ([("paint.py", "KERNEL_SWEEP_VERTICES")], "each round colors a vertex"),
    ("structure.py", "line_graph_root.cover"):
        ([("structure.py", "LINE_GRAPH_VERTICES")], "each level covers an edge of the capped graph"),
    ("structure.py", "_first_order"):
        ([("structure.py", "LINEAR_INTERVAL_VERTICES"), ("structure.py", "CIRCULAR_INTERVAL_VERTICES")],
         "one level per vertex placed"),
}


def _module_int_constants(tree):
    """Name -> value of each module-level assignment of an int literal."""
    return {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for t in node.targets if isinstance(t, ast.Name)}


def test_every_recursion_is_capped():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    found = sorted((module, name) for module, tree in trees.items()
                   for name in _self_calling_functions(tree))
    # equal, not a subset: a recursion that becomes a loop leaves the list
    assert found == sorted(RECURSION_CAPS)
    constants = {module: _module_int_constants(tree) for module, tree in trees.items()}
    for caps, _why in RECURSION_CAPS.values():
        for module, name in caps:
            # well inside the default limit of 1000, callers' frames included
            assert 0 < constants[module].get(name, 0) <= 300, (module, name)


def test_the_check_sees_self_calling_functions():
    tree = ast.parse(
        "def walk(k):\n"
        "    return walk(k - 1) if k else 0\n"
        "def outer(xs):\n"
        "    def place(i):\n"
        "        return i == len(xs) or place(i + 1)\n"
        "    return place(0)\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(c.size() for c in self.children)\n"
        "    def flat(self):\n"
        "        def go(node):\n"
        "            return [node] + [x for c in node.children for x in go(c)]\n"
        "        return go(self)\n"
        "def ping(k):\n"
        "    return pong(k)\n"
        "def pong(k):\n"
        "    return ping(k)\n"
        "def loop(k):\n"
        "    while k:\n"
        "        k -= 1\n"
        "    return outer([k])\n"
    )
    assert _self_calling_functions(tree) == ["Tree.flat.go", "outer.place", "walk"]


def _globals_and_caches(tree):
    """(function, line) of each `global` statement, the function named as
    in `_self_calling_functions` (None at module level), and the line of
    each `cache` or `lru_cache` imported from `functools` or read as its
    attribute.  A memo that outlives a call would let a run that repeats
    its inputs, as the benchmark's cycles do, answer from a previous
    call."""
    globals_found, caches = [], []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", owner)
                continue
            if isinstance(child, ast.Global):
                globals_found.append((owner, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.module == "functools":
                caches.extend(child.lineno for alias in child.names
                              if alias.name in ("cache", "lru_cache"))
            elif (isinstance(child, ast.Attribute) and child.attr in ("cache", "lru_cache")
                  and isinstance(child.value, ast.Name) and child.value.id == "functools"):
                caches.append(child.lineno)
            visit(child, prefix, owner)

    visit(tree, "", None)
    return globals_found, caches


# Every function that rebinds a module-level name, with the reason.  State
# kept between calls belongs to an object the caller makes and passes.
GLOBALS = {
    ("cli.py", "main"):
        "builds the argument parser once per process, on the first call, so that "
        "importing stays cheap; the parser holds no answer",
}


def test_no_module_state_outlives_a_call_but_the_listed():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    found = {(module, owner) for module, tree in trees.items()
             for owner, _ in _globals_and_caches(tree)[0]}
    # equal, not a subset: a function that stops rebinding leaves the list
    assert sorted(found, key=str) == sorted(GLOBALS)
    caches = {module: _globals_and_caches(tree)[1] for module, tree in trees.items()}
    assert {module: lines for module, lines in caches.items() if lines} == {}


def test_the_check_sees_globals_and_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache as lru, partial\n"
        "from functools import cache\n"
        "global top\n"
        "_seen = {}\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def solve(g):\n"
        "    global _seen\n"
        "    def inner():\n"
        "        global _seen\n"
        "    return partial(inner)\n"
        "class Solver:\n"
        "    @functools.cache\n"
        "    def run(self):\n"
        "        global _seen\n"
        "    def keep(self):\n"
        "        _seen['k'] = functools.reduce\n"
    )
    assert _globals_and_caches(tree) == (
        [(None, 4), ("solve", 8), ("solve.inner", 10), ("Solver.run", 15)], [2, 3, 6, 13])
