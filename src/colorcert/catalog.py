"""Built-in catalog of small orientation certificates.

Each entry is a fixed digraph together with the expected counts of even
and odd spanning Eulerian sub-digraphs and a short description of how
the underlying graph is built.  The derived low set of an entry is the
set of vertices whose out-degree equals their degree minus one; on
entries used as near-degree examples these are exactly the vertices
allowed one fewer color.
"""

from dataclasses import dataclass

from .graphs import Digraph, ListSizeFn, MultiGraph, SimpleGraph, line_graph, path_graph
from .kernel import KPCertificate, orientation_from_clique_orders
from .structure import TwoJoin


@dataclass(frozen=True)
class CatalogEntry:
    tag: str  # short stable entry id
    name: str
    digraph: Digraph
    ee: int  # expected even Eulerian count
    eo: int  # expected odd Eulerian count
    description: str

    def low_set(self):
        """Vertices with out-degree exactly degree - 1."""
        g = self.digraph.support()
        degs = g.degrees()
        outs = self.digraph.out_degrees()
        return frozenset(v for v in range(g.n) if outs[v] == degs[v] - 1)


def _entry(tag, name, n, arcs, ee, eo, description):
    return CatalogEntry(tag, name, Digraph.from_arcs(n, arcs), ee, eo, description)


_ENTRIES = [
    _entry(
        "1a", "diamond", 4,
        [(2, 0), (1, 2), (0, 3), (3, 1), (1, 0)],
        2, 1,
        "K4 minus an edge",
    ),
    _entry(
        "1b", "k3-join-e2", 5,
        [(2, 0), (2, 1), (0, 3), (3, 1), (1, 0),
         (0, 4), (4, 1), (4, 2), (4, 3)],
        4, 3,
        "triangle joined to two independent vertices",
    ),
    _entry(
        "1c", "k2-join-antichair", 7,
        [(3, 1), (3, 2), (1, 0), (2, 0), (2, 1), (4, 3),
         (5, 6), (0, 6), (1, 6), (6, 2), (3, 6), (6, 4),
         (0, 5), (1, 5), (5, 2), (5, 3), (5, 4)],
        81, 80,
        "edge joined to the complement of a chair",
    ),
    _entry(
        "1d", "k4-join-e2", 6,
        [(0, 4), (4, 1), (4, 2), (3, 4), (0, 5), (5, 1), (5, 2), (3, 5),
         (0, 3), (3, 1), (3, 2), (2, 0), (1, 2), (1, 0)],
        16, 17,
        "K4 joined to two independent vertices",
    ),
    _entry(
        "1e", "k4-join-e4", 8,
        [(1, 0), (2, 0), (2, 1), (0, 3), (3, 1), (3, 2),
         (0, 4), (1, 4), (4, 2), (0, 5), (5, 1), (5, 2),
         (0, 6), (1, 6), (6, 2), (1, 7), (7, 2), (0, 7),
         (7, 3), (4, 7), (7, 5), (6, 7)],
        512, 515,
        "K4 joined to four independent vertices",
    ),
    _entry(
        "1f", "k4-join-e4-plus-edge", 8,
        [(1, 0), (2, 0), (2, 1), (0, 3), (3, 1), (3, 2),
         (0, 4), (1, 4), (4, 2), (0, 5), (5, 1), (2, 5),
         (0, 6), (1, 6), (6, 2), (1, 7), (7, 2), (0, 7),
         (7, 3), (4, 7), (5, 7), (6, 7), (3, 4)],
        751, 750,
        "previous entry with one extra edge on the independent side",
    ),
    _entry(
        "1g", "k4-join-2k2", 8,
        [(1, 0), (2, 0), (2, 1), (0, 3), (3, 1), (3, 2),
         (0, 4), (4, 1), (2, 4), (0, 5), (1, 5), (5, 2),
         (0, 6), (1, 6), (6, 2), (1, 7), (7, 2), (0, 7),
         (7, 3), (4, 7), (5, 7), (6, 7), (4, 3), (5, 6)],
        1097, 1096,
        "K4 joined to two disjoint edges",
    ),
    _entry(
        "1h", "k3-join-p4", 7,
        [(1, 0), (2, 0), (2, 1), (4, 5), (5, 6),
         (0, 3), (3, 1), (3, 2), (0, 4), (1, 4), (4, 2),
         (0, 5), (5, 1), (5, 2), (0, 6), (1, 6), (6, 2), (4, 3)],
        108, 107,
        "triangle joined to a four-vertex path",
    ),
    _entry(
        "1i", "k2-join-c4", 6,
        [(2, 0), (2, 1), (0, 3), (3, 1), (1, 0), (4, 5), (5, 3),
         (4, 2), (3, 2), (0, 4), (1, 4), (0, 5), (5, 1)],
        30, 28,
        "edge joined to a four-cycle",
    ),
    _entry(
        "2a", "gadget-a", 7,
        [(1, 0), (1, 2), (3, 1), (2, 0), (0, 3), (3, 2),
         (0, 4), (4, 2), (5, 1), (5, 3), (4, 5), (1, 6), (6, 3), (5, 6)],
        14, 12,
        "seven-vertex reducible configuration",
    ),
    _entry(
        "2b", "gadget-b", 5,
        [(1, 0), (2, 0), (3, 2), (3, 1), (0, 4), (4, 1), (2, 4), (4, 3)],
        4, 2,
        "five-vertex reducible configuration",
    ),
    _entry(
        "2c", "gadget-c", 5,
        [(1, 0), (2, 1), (3, 2), (2, 4), (3, 4), (4, 1), (0, 3)],
        3, 1,
        "five-vertex reducible configuration, sparse variant",
    ),
    _entry(
        "2d", "gadget-d", 6,
        [(1, 0), (2, 0), (2, 1), (3, 1), (0, 4), (4, 2), (1, 4),
         (3, 2), (0, 3), (0, 5), (5, 2), (4, 5)],
        14, 15,
        "six-vertex reducible configuration",
    ),
    _entry(
        "2e", "gadget-e", 6,
        [(1, 0), (2, 0), (3, 2), (3, 1), (0, 4), (2, 4), (4, 1),
         (5, 2), (0, 5), (1, 5), (5, 3), (5, 4)],
        13, 11,
        "six-vertex reducible configuration, second variant",
    ),
    _entry(
        "2f", "gadget-f", 6,
        [(0, 2), (0, 4), (0, 5), (1, 0), (2, 3), (2, 4), (2, 5),
         (3, 1), (4, 3), (4, 5), (5, 1)],
        5, 3,
        "six-vertex reducible configuration, third variant",
    ),
    _entry(
        "2g", "e2-join-c4", 6,
        [(2, 0), (1, 2), (0, 3), (1, 3), (5, 4), (3, 5),
         (2, 4), (3, 2), (4, 0), (4, 1), (0, 5), (5, 1)],
        22, 16,
        "two independent vertices joined to a four-cycle",
    ),
    _entry(
        "2h", "octet", 8,
        [(0, 4), (0, 5), (0, 6), (0, 7), (1, 0), (2, 0), (2, 3),
         (2, 6), (2, 7), (3, 1), (4, 1), (4, 2), (4, 3), (4, 6),
         (5, 2), (5, 4), (6, 5), (7, 5), (7, 6)],
        72, 74,
        "eight-vertex reducible configuration",
    ),
    _entry(
        "4a", "k2-join-2k2-two-lows", 6,
        [(2, 0), (0, 3), (1, 2), (3, 1), (0, 4), (4, 1),
         (0, 5), (5, 1), (5, 4), (1, 0), (3, 2)],
        8, 9,
        "edge joined to two disjoint edges, two low vertices",
    ),
    _entry(
        "4b", "k2-join-p4-low-end", 6,
        [(0, 3), (0, 4), (0, 5), (1, 0), (2, 1), (2, 0),
         (3, 1), (3, 2), (4, 1), (1, 5), (5, 4), (4, 2)],
        14, 15,
        "edge joined to a four-vertex path, one low path-end",
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}
_BY_NAME.update({e.tag: e for e in _ENTRIES})


def catalog():
    """All built-in orientation entries, in fixed order."""
    return list(_ENTRIES)


def catalog_entry(name):
    """Look up an entry by tag or by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None


# ---------------------------------------------------------------------------
# Multigraph examples with per-clique linear orders.
#
# Each example fixes a root multigraph, names its edge copies (the order
# below is the vertex order of the line graph), and gives one linear
# order per maximal clique of the line graph (each clique corresponds to
# a root vertex).  Orienting every clique transitively along its order
# and taking the union yields an orientation that is kernel-perfect;
# conflicting orders produce bidirected pairs.

@dataclass(frozen=True)
class CliqueOrderEntry:
    tag: str
    name: str
    root: MultiGraph
    edge_origin: tuple  # line-graph vertex index -> (u, v) root edge
    clique_orders: tuple  # tuple of tuples of line-graph vertex indices
    expected_degrees: tuple
    expected_outdegrees: tuple
    emphasized: frozenset  # line vertices granted a full-degree budget


def _clique_entry(tag, name, root, named_edges, clique_orders, degs, outs, emphasized=()):
    index = {nm: i for i, (nm, _, _) in enumerate(named_edges)}
    origin = tuple((u, v) for _, u, v in named_edges)
    orders = tuple(tuple(index[nm] for nm in order) for order in clique_orders)
    return CliqueOrderEntry(
        tag, name, root, origin, orders,
        tuple(degs), tuple(outs) if outs is not None else None,
        frozenset(index[nm] for nm in emphasized),
    )


_MULTI_A_ROOT = MultiGraph.from_edges(6, [
    (0, 1, 3), (1, 2, 3), (2, 5, 2), (0, 4, 2), (1, 3, 1),
])

_MULTI_A_EDGES = [
    ("u1", 0, 4), ("u2", 0, 4),
    ("v1", 0, 1), ("v2", 0, 1), ("v3", 0, 1),
    ("w", 1, 3),
    ("x1", 1, 2), ("x2", 1, 2), ("x3", 1, 2),
    ("y1", 2, 5), ("y2", 2, 5),
]

_MULTI_A_ORDERS = [
    ("v1", "v2", "u1", "u2", "v3"),
    ("x1", "x2", "y1", "y2", "x3"),
    ("v3", "x3", "w", "v1", "v2", "x1", "x2"),
]

_MULTI_C_ROOT = MultiGraph.from_edges(5, [
    (0, 3, 1), (0, 1, 3), (1, 2, 2), (2, 4, 1), (0, 4, 1),
])

_MULTI_C_EDGES = [
    ("u", 0, 3),
    ("v1", 0, 1), ("v2", 0, 1), ("v3", 0, 1),
    ("w", 0, 4),
    ("x1", 1, 2), ("x2", 1, 2),
    ("y", 2, 4),
]

_MULTI_C_ORDERS = [
    ("v3", "w", "u", "v1", "v2"),
    ("v1", "v2", "x1", "x2", "v3"),
    ("x1", "x2", "y"),
    ("y", "w"),
]

_CLIQUE_ENTRIES = [
    _clique_entry(
        "3a", "multi-a", _MULTI_A_ROOT, _MULTI_A_EDGES, _MULTI_A_ORDERS,
        (4, 4, 8, 8, 8, 6, 8, 8, 8, 4, 4),
        (2, 1, 6, 5, 6, 4, 4, 3, 5, 2, 1),
    ),
    _clique_entry(
        "3b", "multi-b",
        MultiGraph.from_edges(6, [(0, 1, 3), (1, 2, 3), (2, 5, 2), (0, 4, 2)]),
        [e for e in _MULTI_A_EDGES if e[0] != "w"],
        [tuple(nm for nm in order if nm != "w") for order in _MULTI_A_ORDERS],
        (4, 4, 7, 7, 7, 7, 7, 7, 4, 4),
        None,
        emphasized=("v1", "v2", "v3", "x1", "x2", "x3"),
    ),
    _clique_entry(
        "3c", "multi-c", _MULTI_C_ROOT, _MULTI_C_EDGES, _MULTI_C_ORDERS,
        (4, 6, 6, 6, 5, 5, 5, 3),
        (2, 4, 3, 4, 3, 3, 2, 1),
    ),
]

_CLIQUE_BY_NAME = {e.name: e for e in _CLIQUE_ENTRIES}
_CLIQUE_BY_NAME.update({e.tag: e for e in _CLIQUE_ENTRIES})


def clique_order_catalog():
    return list(_CLIQUE_ENTRIES)


def clique_order_entry(name):
    try:
        return _CLIQUE_BY_NAME[name]
    except KeyError:
        raise KeyError(f"no clique-order entry named {name!r}") from None


def mu3_kp_certificates():
    """Certificates for the built-in clique-order catalog entries, in
    catalog order.

    For each entry: build the line graph, orient it from the stored
    clique orders, and give it the budget f(v) = d(v) on emphasized
    vertices and d(v) - 1 otherwise.  Nothing is checked here: the
    caller compares the entry's degree and out-degree rows and runs
    `check()`, so a bad entry is one failed certificate, not an error.
    """
    certs = []
    for entry in _CLIQUE_ENTRIES:
        lg, _ = line_graph(entry.root, entry.edge_origin)
        d = orientation_from_clique_orders(lg.n, entry.clique_orders)
        f = ListSizeFn.degree_minus_one_on_high(lg, entry.emphasized)
        certs.append(KPCertificate(lg, f, d, root=entry.root, origin=entry.edge_origin))
    return certs


# ---------------------------------------------------------------------------
# built-in interval-strip instances

def two_join_catalog():
    """Two interval-strip instances: a trivial one and a canonical one.

    Returned as (tag, name, graph, TwoJoin) tuples; both satisfy the
    four strip conditions checked by verify_2join.
    """
    trivial = SimpleGraph.from_edges(
        4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    )
    trivial_tj = TwoJoin(
        frozenset({0, 1}), frozenset({0, 1}), frozenset({0, 1}),
        frozenset({2}), frozenset({3}),
    )
    path = path_graph(5)
    path_tj = TwoJoin(
        frozenset({1, 2, 3}), frozenset({1}), frozenset({3}),
        frozenset({0}), frozenset({4}),
    )
    return [
        ("5a", "trivial-strip", trivial, trivial_tj),
        ("5b", "path-strip", path, path_tj),
    ]
