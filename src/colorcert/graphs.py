"""Core graph, multigraph and digraph types plus serialization.

All types are immutable after construction and hashable where that is
cheap, so they can be shared freely between workers.
"""

from __future__ import annotations

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
    if type(v) is not int:
        raise ValueError(f"vertex {v!r} is not an int")
    if not (0 <= v < n):
        raise ValueError(f"vertex {v} out of range for n={n}")


def _check_count(n):
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count {n!r} is not an int >= 0")


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless simple graph on vertices 0..n-1, stored as one neighbour
    bitmask per vertex: bit w of _masks[v] is set iff vw is an edge.
    Only the builders in this module call the constructor."""

    n: int
    _masks: tuple

    @staticmethod
    def from_edges(n, edge_pairs):
        _check_count(n)
        adj = [0] * n
        for u, v in edge_pairs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return SimpleGraph(n, tuple(adj))

    def edge_list(self):
        """Sorted (u, v) pairs with u < v."""
        return [(u, v) for u, m in enumerate(self._masks) for v in _bits(m) if v > u]

    def has_edge(self, u, v):
        """False also for an id outside 0..n-1 and for u == v."""
        return 0 <= u < self.n and v >= 0 and self._masks[u] >> v & 1 == 1

    def adjacency_masks(self):
        """Neighbor bitmask per vertex, as the stored tuple."""
        return self._masks

    def degree(self, v):
        _check_vertex(v, self.n)
        return self._masks[v].bit_count()

    def degrees(self):
        return [m.bit_count() for m in self._masks]

    def max_degree(self):
        return max(self.degrees(), default=0)

    def complement(self):
        full = (1 << self.n) - 1
        return SimpleGraph(self.n, tuple(full ^ m ^ (1 << v) for v, m in enumerate(self._masks)))

    def induced(self, vertices):
        """Induced subgraph; returns (graph, old-vertex list in new order).

        A vertex outside 0..n-1 raises ValueError.
        """
        order = sorted(vertices)
        for v in order:
            _check_vertex(v, self.n)
        adj = self._masks
        masks = tuple(sum(1 << j for j, w in enumerate(order) if adj[v] >> w & 1)
                      for v in order)
        return SimpleGraph(len(order), masks), order

    def is_clique(self, vertices):
        vs = list(vertices)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))

    def cliques(self):
        """Every nonempty clique as an ascending tuple, by size and then
        lexicographically."""
        adj = self.adjacency_masks()
        # (clique, common neighbours above its last vertex), breadth first:
        # the loop visits what it appends, and each level stays lexicographic
        queue = [((), (1 << self.n) - 1)]
        for clique, cand in queue:
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                queue.append((clique + (v,), cand & adj[v]))
        return [clique for clique, _ in queue[1:]]


@dataclass(frozen=True)
class MultiGraph:
    """Loopless multigraph; one record per pair, multiplicity >= 1.

    The support masks and the pair -> multiplicity dict are worked out
    from the records on first use and kept; they are not fields.
    """

    n: int
    edges: tuple  # sorted tuple of (u, v, mult) with u < v

    @staticmethod
    def from_edges(n, records):
        _check_count(n)
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

    @cached_property
    def _adj(self):
        adj = [0] * self.n
        for u, v, _ in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def _mult(self):
        return {(u, v): m for u, v, m in self.edges}

    def adjacency_masks(self):
        """Support neighbour bitmask per vertex, as the stored tuple."""
        return self._adj

    def multiplicity(self, u, v):
        return self._mult.get((min(u, v), max(u, v)), 0)

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
        return SimpleGraph(self.n, self._adj)

    def simple(self):
        """As SimpleGraph; requires every multiplicity 1."""
        if any(m != 1 for _, _, m in self.edges):
            raise ValueError("multigraph has parallel edges")
        return self.support()


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices 0..n-1, stored as out- and in-neighbour
    bitmasks: bit v of _out[u] and bit u of _in[v] are set iff (u, v) is
    an arc, and (v, u) may be one too.  Only `from_arcs` calls this."""

    n: int
    _out: tuple
    _in: tuple

    @staticmethod
    def from_arcs(n, arc_pairs):
        _check_count(n)
        out = [0] * n
        into = [0] * n
        for u, v in arc_pairs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"loop arc at vertex {u}")
            out[u] |= 1 << v
            into[v] |= 1 << u
        return Digraph(n, tuple(out), tuple(into))

    @property
    def arcs(self):
        """The (u, v) arcs in ascending order."""
        return [(u, v) for u, m in enumerate(self._out) for v in _bits(m)]

    def arc_masks(self):
        """(out-neighbour masks, in-neighbour masks), the stored tuples."""
        return self._out, self._in

    def out_degree(self, v):
        return self._out[v].bit_count()

    def out_degrees(self):
        return [m.bit_count() for m in self._out]

    def support(self):
        return SimpleGraph(self.n, self.support_masks())

    def support_masks(self):
        """Neighbour bitmask per vertex of the support: out | in."""
        return tuple(o | i for o, i in zip(self._out, self._in))

    def doubled_pairs(self):
        """The bidirected pairs (u, v), u < v, in ascending order."""
        return [(u, v) for u, (o, i) in enumerate(zip(self._out, self._in))
                for v in _bits(o & i) if v > u]


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


def two_coloring(masks, verts):
    """Split the vertex mask `verts` into two independent sides, or None.

    masks[v] is the neighbour bitmask of v; only neighbours inside
    `verts` count.  The least vertex of each component goes to the
    first side, which fixes the split.  Returns (side 0, side 1) as
    masks, or None when the graph on `verts` has an odd cycle.
    """
    sides = [0, 0]
    rest = verts
    while rest:
        # breadth-first layers alternate sides; an edge inside a layer
        # is the only way to close an odd cycle
        layer = rest & -rest
        side = 0
        while layer:
            sides[side] |= layer
            rest &= ~layer
            reach = 0
            for v in _bits(layer):
                reach |= masks[v]
            if reach & layer:
                return None
            side ^= 1
            layer = reach & rest
    return sides[0], sides[1]


def blocks(masks, verts):
    """The blocks of the graph on the vertex mask `verts`, as vertex masks.

    masks[v] is the neighbour bitmask of v; only neighbours inside
    `verts` count.  A block is a maximal connected subgraph without a
    cut vertex: an isolated vertex, a bridge or a 2-connected piece.
    Two blocks share at most one vertex, a cut vertex.

    Hopcroft and Tarjan's depth-first search, on an explicit stack.
    order[v] numbers v in discovery order and low[v] is the least number
    that v's subtree reaches by one edge.  When the search backs up from
    u to its parent with low[u] >= order[parent], nothing below u
    reaches above the parent, so the parent and the vertices found since
    u, which are still on `path`, make a block; they leave `path`, the
    parent stays.  Counting the tree edge back to the parent in low[u]
    leaves this test unchanged.
    """
    order = [0] * len(masks)  # 0: not yet found
    low = [0] * len(masks)
    found = []
    count = 0
    rest = verts
    while rest:
        root = (rest & -rest).bit_length() - 1
        count += 1
        order[root] = low[root] = count
        rest ^= 1 << root
        if not masks[root] & verts:
            found.append(1 << root)
        path = [root]
        stack = [(root, masks[root] & verts)]  # (vertex, neighbours not yet seen)
        while stack:
            u, todo = stack[-1]
            if todo:
                w = (todo & -todo).bit_length() - 1
                stack[-1] = (u, todo ^ 1 << w)
                if order[w]:
                    low[u] = min(low[u], order[w])
                else:
                    count += 1
                    order[w] = low[w] = count
                    rest ^= 1 << w
                    path.append(w)
                    stack.append((w, masks[w] & verts))
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[u])
                if low[u] >= order[parent]:
                    block = 1 << parent
                    while block >> u & 1 == 0:
                        block |= 1 << path.pop()
                    found.append(block)
    return found


def degree_route(masks, budget):
    """Whether the graph with neighbour masks `masks` is budget-choosable,
    when its blocks decide it at once: True, False, or None when they
    do not.  The same answer holds in the online game, and a no also
    rules out a kernel-perfect orientation with out-degrees below the
    budget.

    A vertex whose budget exceeds its degree among the vertices left is
    peeled off, until none is; peeling only lowers degrees, so what is
    left does not depend on the order.  If a vertex left has a budget
    below its degree there, the answer is None.  Otherwise every vertex
    left has budget = degree, and the answer is False exactly when some
    component of what is left is a Gallai tree, a connected graph whose
    every block is a clique or an odd cycle.  The argument:

    - Peeling.  A peeled vertex v can be coloured last, greedily, from
      any list, since fewer of its neighbours are left than it has
      colours.  In the online game the painter plays the strategy for
      the rest, and adds v to the painted set of each round that lists v
      and paints none of its neighbours; v is left unpainted at most
      d(v) < f(v) times, once per painted neighbour.  So peeling keeps
      choosability and paintability.
    - False.  Let C be a component left that is a Gallai tree, with
      f = d on it.  C is not degree-choosable (Erdős, Rubin and Taylor,
      "Choosability in graphs", 1979): lists built block by block, one
      palette per block, have no proper colouring.  C is an induced
      subgraph, so those lists on C with any lists elsewhere have none
      either, and the graph is not budget-choosable.  A painter
      strategy colours from every list assignment and a kernel-perfect
      orientation with out-degrees below the budget gives a painter
      strategy, so there is neither.
    - True.  A connected graph that is not a Gallai tree has an
      Alon–Tarsi orientation with out-degrees below its degrees
      (Hladký, Král' and Schauz, "Brooks' theorem via the Alon–Tarsi
      theorem", Discrete Math. 310, 2010), so it is degree-paintable
      (Schauz, "Mr. Paint and Mrs. Correct", EJC 16, 2009).  The
      components play apart, the painter answering each listed set
      component by component, so what is left is paintable when every
      component is, and putting the peeled vertices back keeps that.
      Paintable graphs are choosable.
    """
    left = (1 << len(masks)) - 1
    pending = left
    while pending:
        bit = pending & -pending
        pending ^= bit
        v = bit.bit_length() - 1
        if budget[v] > (masks[v] & left).bit_count():
            left ^= bit
            pending |= masks[v] & left
    if any(budget[v] < (masks[v] & left).bit_count() for v in _bits(left)):
        return None
    # the vertices of the blocks that are neither cliques nor odd cycles,
    # then everything they reach: every component must be reached
    reach = 0
    for block in blocks(masks, left):
        size = block.bit_count()
        inner = {(masks[v] & block).bit_count() for v in _bits(block)}
        if inner != {size - 1} and not (inner == {2} and size % 2):
            reach |= block
    frontier = reach
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = masks[bit.bit_length() - 1] & left & ~reach
        reach |= new
        frontier |= new
    return reach == left


# ---------------------------------------------------------------------------
# generators

def join(g1, g2):
    """Disjoint union plus all edges between the two vertex sets."""
    low, high = (1 << g1.n) - 1, ((1 << g2.n) - 1) << g1.n
    return SimpleGraph(g1.n + g2.n, tuple(m | high for m in g1.adjacency_masks())
                       + tuple(m << g1.n | low for m in g2.adjacency_masks()))


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
    adj = [0] * len(origin)
    for star in copy_stars(h.n, origin):
        clique = sum(1 << i for i in star)
        for i in star:
            adj[i] |= clique
    return SimpleGraph(len(origin), tuple(m ^ (1 << i) for i, m in enumerate(adj))), tuple(origin)


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


def _g6_value(data, i):
    """The 6-bit value of byte i of a graph6 word."""
    b = data[i]
    if not 63 <= b <= 126:
        raise FormatError(f"out-of-range byte {b}", i)
    return b - 63


def parse_graph6(text):
    """Decode one graph6 word into a SimpleGraph.

    The body's 6-bit values, written out, are one bit string whose k-th
    bit says whether the k-th pair (u, v), u < v, in column order (v,
    then u) is an edge; the bits past the last pair are padding.
    """
    if isinstance(text, str):
        data = text.strip().encode("ascii", errors="replace")
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise FormatError("empty graph6 word", 0)
    head = range(1)
    if data[0] == 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 header", len(data))
        if data[1] == 126:
            raise FormatError("graph6 words beyond 258047 vertices unsupported", 1)
        head = range(1, 4)
    n = 0
    for i in head:
        n = n << 6 | _g6_value(data, i)
    pos = head.stop
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise FormatError(
            f"graph6 word too short: need {nbytes} data bytes, got {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise FormatError("trailing garbage after graph6 word", pos + nbytes)
    bits = "".join(f"{_g6_value(data, i):06b}" for i in range(pos, pos + nbytes))
    if "1" in bits[nbits:]:
        raise FormatError("nonzero padding bits", pos + nbytes - 1)
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return SimpleGraph.from_edges(n, [e for e, bit in zip(pairs, bits) if bit == "1"])


def emit_graph6(g):
    """Encode a SimpleGraph as one graph6 word (string): the bit string
    that `parse_graph6` reads, padded to whole 6-bit values."""
    adj = g.adjacency_masks()
    bits = "".join(format(adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return (_g6_number(g.n) + body).decode("ascii")


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
    return {"n": d.n, "arcs": [[u, v] for u, v in d.arcs]}


def digraph_from_json(doc):
    return Digraph.from_arcs(require(doc, "n"), require_pairs(doc, "arcs"))


def require(doc, key, where=""):
    """doc[key] of a JSON object; FormatError naming `where` + key when
    doc is not an object or lacks the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"JSON document lacks the key '{where}{key}'")
    return doc[key]


def require_list(doc, key, where="", what="a list", item=lambda _x: True):
    """doc[key] when it is a list whose items all pass `item`, else
    FormatError naming `where` + key and saying it is not `what`."""
    items = require(doc, key, where)
    if not (isinstance(items, list) and all(item(x) for x in items)):
        raise FormatError(f"JSON key '{where}{key}' is not {what}")
    return items


def require_ints(doc, key, where=""):
    """doc[key] when it is a list of ints, else FormatError naming
    `where` + key; the reader checks the values."""
    return require_list(doc, key, where, "a list of ints", lambda x: type(x) is int)


def require_pairs(doc, key, where=""):
    """doc[key] as a list of 2-tuples when it is a list of pairs (lists,
    or tuples as `to_json` writes), else FormatError naming `where` + key."""
    pairs = require_list(doc, key, where, "a list of pairs",
                         lambda p: isinstance(p, (list, tuple)) and len(p) == 2)
    return [tuple(p) for p in pairs]


def require_records(doc, key, where=""):
    """doc[key] when it is a list of edge records, (u, v) or
    (u, v, multiplicity) lists or tuples of ints, else FormatError naming
    `where` + key; `MultiGraph.from_edges` checks the values."""
    return require_list(doc, key, where, "a list of edge records",
                        lambda r: isinstance(r, (list, tuple)) and len(r) in (2, 3)
                        and all(type(x) is int for x in r))


@dataclass(eq=False)
class OrientationCertificate:
    """A graph, a list-size budget f and an orientation of the graph with
    out-degrees below f: the part Alon–Tarsi and kernel-perfect
    certificates share.  Each subclass adds its proof and a `check()`."""

    graph: SimpleGraph
    f: ListSizeFn
    digraph: Digraph

    def fits(self):
        """The digraph's support is the graph (a bidirected pair is one
        edge), f is on its vertices and every out-degree is below f."""
        return (self.digraph.support_masks() == self.graph.adjacency_masks()
                and self.f.n == self.graph.n
                and all(o < k for o, k in zip(self.digraph.out_degrees(), self.f.values)))

    def to_json(self):
        """The document keys 'n', 'edges', 'f' and 'orientation'."""
        return {
            "n": self.graph.n,
            "edges": self.graph.edge_list(),
            "f": list(self.f.values),
            "orientation": digraph_to_json(self.digraph),
        }

    @staticmethod
    def read(doc):
        """(graph, f, digraph) of a certificate document; FormatError naming
        the key when one is missing or malformed, or when 'orientation'
        or 'f' is not on its n vertices."""
        n = require(doc, "n")
        g = SimpleGraph.from_edges(n, require_pairs(doc, "edges"))
        f = ListSizeFn(tuple(require_ints(doc, "f")))
        d = digraph_from_json(require(doc, "orientation"))
        if d.n != n:
            raise FormatError(f"JSON key 'orientation.n' is {d.n}, but 'n' is {n}")
        if f.n != n:
            raise FormatError(f"JSON key 'f' has {f.n} values, but 'n' is {n}")
        return g, f, d


def _read(data):
    """A SimpleGraph from the bytes of one graph6 word, else a
    MultiGraph from those of an edge list (its header has a space)."""
    text = data.decode()
    stripped = text.strip()
    if "\n" not in stripped and " " not in stripped:
        return parse_graph6(stripped)
    return parse_edge_list(text)


def read_graph(data):
    """A SimpleGraph from the bytes of a graph6 word or an edge list."""
    g = _read(data)
    return g.simple() if isinstance(g, MultiGraph) else g


def read_multigraph(data):
    """A MultiGraph from the bytes of a graph6 word or an edge list."""
    g = _read(data)
    return g if isinstance(g, MultiGraph) else MultiGraph.from_edges(g.n, g.edge_list())
