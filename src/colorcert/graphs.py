"""Core graph, multigraph and digraph types plus serialization.

All types are immutable after construction and hashable where that is
cheap, so they can be shared freely between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class FormatError(ValueError):
    """Malformed input text (graph6, edge list, JSON)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _check_vertex(v, n):
    if not (0 <= v < n):
        raise ValueError(f"vertex {v} out of range for n={n}")


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless simple graph on vertices 0..n-1.

    The neighbour masks are worked out from the edges on first use and
    kept.  They are not a field, so equality, hashing and repr see only
    n and the edges.
    """

    n: int
    edges: frozenset  # frozenset of frozenset({u, v})

    @staticmethod
    def from_edges(n, edge_pairs):
        edges = set()
        for u, v in edge_pairs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            edges.add(frozenset((u, v)))
        return SimpleGraph(n, frozenset(edges))

    def edge_list(self):
        """Sorted (u, v) pairs with u < v."""
        return sorted(tuple(sorted(e)) for e in self.edges)

    def has_edge(self, u, v):
        return frozenset((u, v)) in self.edges

    @cached_property
    def _adj(self):
        adj = [0] * self.n
        for e in self.edges:
            u, v = e
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def neighbors(self, v):
        _check_vertex(v, self.n)
        m = self._adj[v]
        return {w for w in range(self.n) if m >> w & 1}

    def adjacency_masks(self):
        """Neighbor bitmask per vertex, as the stored tuple."""
        return self._adj

    def degree(self, v):
        _check_vertex(v, self.n)
        return self._adj[v].bit_count()

    def degrees(self):
        return [m.bit_count() for m in self._adj]

    def max_degree(self):
        return max(self.degrees(), default=0)

    def complement(self):
        edges = {
            frozenset((u, v))
            for u, v in combinations(range(self.n), 2)
            if not self.has_edge(u, v)
        }
        return SimpleGraph(self.n, frozenset(edges))

    def induced(self, vertices):
        """Induced subgraph; returns (graph, old-vertex list in new order).

        A vertex outside 0..n-1 raises ValueError.
        """
        order = sorted(vertices)
        for v in order:
            _check_vertex(v, self.n)
        adj = self._adj
        edges = [(i, j) for i, j in combinations(range(len(order)), 2)
                 if adj[order[i]] >> order[j] & 1]
        return SimpleGraph.from_edges(len(order), edges), order

    def is_clique(self, vertices):
        vs = list(vertices)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))

    def cliques(self):
        """Every nonempty clique as an ascending tuple, by size and then
        lexicographically."""
        adj = self.adjacency_masks()
        found = []

        def extend(clique, cand):
            # cand: the common neighbours of `clique` above its last vertex
            found.append(clique)
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                extend(clique + (v,), cand & adj[v])

        # the search meets cliques in lexicographic order, which a stable
        # sort by size keeps within each size
        extend((), (1 << self.n) - 1)
        found.sort(key=len)
        return found[1:]


@dataclass(frozen=True)
class MultiGraph:
    """Loopless multigraph; one record per pair, multiplicity >= 1."""

    n: int
    edges: tuple  # sorted tuple of (u, v, mult) with u < v

    @staticmethod
    def from_edges(n, records):
        mult = {}
        for rec in records:
            if len(rec) == 2:
                u, v = rec
                m = 1
            else:
                u, v, m = rec
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if m < 1:
                raise ValueError(f"multiplicity {m} < 1")
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + m
        return MultiGraph(n, tuple(sorted((u, v, m) for (u, v), m in mult.items())))

    def multiplicity(self, u, v):
        key = (min(u, v), max(u, v))
        for a, b, m in self.edges:
            if (a, b) == key:
                return m
        return 0

    def degree(self, v):
        return sum(m for a, b, m in self.edges if v in (a, b))

    def degrees(self):
        d = [0] * self.n
        for a, b, m in self.edges:
            d[a] += m
            d[b] += m
        return d

    def max_multiplicity(self):
        return max((m for _, _, m in self.edges), default=0)

    def edge_count(self):
        return sum(m for _, _, m in self.edges)

    def support(self):
        return SimpleGraph.from_edges(self.n, [(a, b) for a, b, _ in self.edges])

    def simple(self):
        """As SimpleGraph; requires every multiplicity 1."""
        if any(m != 1 for _, _, m in self.edges):
            raise ValueError("multigraph has parallel edges")
        return self.support()


@dataclass(frozen=True)
class Digraph:
    """Arc set over 0..n-1; both (u,v) and (v,u) may be present."""

    n: int
    arcs: frozenset  # frozenset of (u, v) tuples

    @staticmethod
    def from_arcs(n, arc_pairs):
        arcs = set()
        for u, v in arc_pairs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"loop arc at vertex {u}")
            arcs.add((u, v))
        return Digraph(n, frozenset(arcs))

    def out_degree(self, v):
        return sum(1 for a in self.arcs if a[0] == v)

    def out_degrees(self):
        d = [0] * self.n
        for u, _ in self.arcs:
            d[u] += 1
        return d

    def out_neighbors(self, v):
        return {b for a, b in self.arcs if a == v}

    def support(self):
        return SimpleGraph.from_edges(self.n, list(self.arcs))

    def is_bidirected(self, u, v):
        return (u, v) in self.arcs and (v, u) in self.arcs

    def strict_arcs(self):
        """Arcs whose reverse is absent."""
        return {(u, v) for u, v in self.arcs if (v, u) not in self.arcs}

    def induced(self, vertices):
        vs = set(vertices)
        order = sorted(vs)
        index = {v: i for i, v in enumerate(order)}
        arcs = [(index[u], index[v]) for u, v in self.arcs if u in vs and v in vs]
        return Digraph.from_arcs(len(order), arcs), order


@dataclass(frozen=True)
class ListSizeFn:
    """Per-vertex positive list-size budget."""

    values: tuple

    @staticmethod
    def constant(n, k):
        if k < 1:
            raise ValueError("list sizes must be >= 1")
        return ListSizeFn((k,) * n)

    @staticmethod
    def from_mapping(n, mapping):
        vals = []
        for v in range(n):
            if v not in mapping:
                raise ValueError(f"no list size for vertex {v}")
            if mapping[v] < 1:
                raise ValueError("list sizes must be >= 1")
            vals.append(mapping[v])
        return ListSizeFn(tuple(vals))

    @staticmethod
    def degree_minus_one_on_high(g, low_set):
        """f(v) = d(v) on designated low vertices, d(v) - 1 elsewhere."""
        low = set(low_set)
        degs = g.degrees()
        vals = tuple(degs[v] if v in low else degs[v] - 1 for v in range(g.n))
        if any(x < 1 for x in vals):
            raise ValueError("derived list size below 1")
        return ListSizeFn(vals)

    def __call__(self, v):
        return self.values[v]

    @property
    def n(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# generators

def join(g1, g2):
    """Disjoint union plus all edges between the two vertex sets."""
    n = g1.n + g2.n
    edges = list(g1.edge_list())
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edge_list()]
    edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return SimpleGraph.from_edges(n, edges)


def complete_graph(n):
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def empty_graph(n):
    return SimpleGraph.from_edges(n, [])


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a, b):
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite_2t(t):
    """Complete multipartite graph with t parts of size 2.

    Vertex 2i is non-adjacent only to 2i+1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = 2 * t
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if u // 2 != v // 2
    ]
    return SimpleGraph.from_edges(n, edges)


def edge_copies(h):
    """One (u, v) per edge copy of a multigraph, in line-graph vertex order.

    Copies follow the records of `h.edges`; parallel copies are
    consecutive.
    """
    return [(a, b) for a, b, m in h.edges for _ in range(m)]


def copy_stars(n, origin):
    """Per root vertex 0..n-1, the ascending indices of its edge copies."""
    stars = [[] for _ in range(n)]
    for i, (a, b) in enumerate(origin):
        stars[a].append(i)
        stars[b].append(i)
    return stars


def line_graph(h, origin=None):
    """Line graph of a multigraph, plus the map vertex -> root edge.

    Each copy of a multi-edge becomes its own vertex.  Two line-graph
    vertices are adjacent iff the corresponding edge copies share an
    endpoint (parallel copies share both), so each root vertex's star
    of copies is a clique.  Vertices follow `edge_copies(h)` unless
    `origin` relabels them by giving the root edge of each; it must be
    a relabelling of the edge copies, else ValueError.
    """
    copies = edge_copies(h)
    if origin is None:
        origin = copies
    elif sorted(copies) != sorted(tuple(sorted(e)) for e in origin):
        raise ValueError("origin does not match the root's edge copies")
    edges = set()
    for star in copy_stars(h.n, origin):
        edges.update(map(frozenset, combinations(star, 2)))
    return SimpleGraph(len(origin), frozenset(edges)), tuple(origin)


# ---------------------------------------------------------------------------
# graph6

def _g6_number(n):
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126]) + bytes(((n >> (6 * k)) & 63) + 63 for k in (2, 1, 0))
    raise ValueError("vertex count too large for graph6")


def parse_graph6(text):
    """Decode one graph6 word into a SimpleGraph."""
    if isinstance(text, str):
        data = text.strip().encode("ascii", errors="replace")
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise FormatError("empty graph6 word", 0)
    pos = 0
    if data[0] == 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 header", len(data))
        if data[1] == 126:
            raise FormatError("graph6 words beyond 258047 vertices unsupported", 1)
        n = 0
        for i in range(1, 4):
            b = data[i]
            if not (63 <= b <= 126):
                raise FormatError(f"out-of-range byte {b}", i)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        b = data[0]
        if not (63 <= b <= 126):
            raise FormatError(f"out-of-range byte {b}", 0)
        n = b - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise FormatError(
            f"graph6 word too short: need {nbytes} data bytes, got {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise FormatError("trailing garbage after graph6 word", pos + nbytes)
    bits = []
    for i in range(nbytes):
        b = data[pos + i]
        if not (63 <= b <= 126):
            raise FormatError(f"out-of-range byte {b}", pos + i)
        x = b - 63
        bits.extend((x >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits", pos + nbytes - 1)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return SimpleGraph.from_edges(n, edges)


def emit_graph6(g):
    """Encode a SimpleGraph as one graph6 word (string)."""
    out = bytearray(_g6_number(g.n))
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = (x << 1) | b
        out.append(x + 63)
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header then "u v [mult]" lines

def parse_edge_list(text):
    """Parse the plain edge-list format into a MultiGraph."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge list")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"bad header {lines[0]!r}: expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} edge lines, found {len(lines) - 1}")
    records = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        mult = int(parts[2]) if len(parts) == 3 else 1
        records.append((u, v, mult))
    return MultiGraph.from_edges(n, records)


def emit_edge_list(h):
    lines = [f"{h.n} {len(h.edges)}"]
    for u, v, m in h.edges:
        lines.append(f"{u} {v} {m}" if m != 1 else f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON documents

def digraph_to_json(d):
    return {"n": d.n, "arcs": sorted([u, v] for u, v in d.arcs)}


def digraph_from_json(doc):
    try:
        n = doc["n"]
        arcs = doc["arcs"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad digraph document: {exc}")
    return Digraph.from_arcs(n, [tuple(a) for a in arcs])


def load_digraph(path):
    with open(path) as fh:
        return digraph_from_json(json.load(fh))


def load_graph_file(path):
    """Load a SimpleGraph from graph6 (.g6) or edge-list text."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if "\n" not in stripped and " " not in stripped:
        return parse_graph6(stripped)
    return parse_edge_list(text).simple()


def load_multigraph_file(path):
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if "\n" not in stripped and " " not in stripped:
        g = parse_graph6(stripped)
        return MultiGraph.from_edges(g.n, g.edge_list())
    return parse_edge_list(text)
