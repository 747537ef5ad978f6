"""Structural recognizers and constructions for claw-free territory.

Covers claw detection, quasi-line tests, line-graph recognition by
edge-clique partitions, homogeneous clique pairs, linear/circular
interval orders, interval strip attachments and their reductions, strip
compositions over a hub multigraph, and the reducibility scanner that
hunts induced subgraphs carrying orientation or kernel certificates.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .alon_tarsi import is_f_AT
from .graphs import (
    FormatError, ListSizeFn, MultiGraph, SimpleGraph, _bits, _check_vertex, line_graph,
    require, require_ints, require_list, require_pairs, two_coloring,
)
from .kernel import F_KP_VERTICES, is_f_KP


def is_claw_free(g):
    """Return (True, None) or (False, (center, a, b, c)).

    The claw returned is the first by center, then by (a, b, c)
    lexicographically: for each neighbour a of the center, b runs over
    the neighbours above a that miss a, and c is the least neighbour
    above b that misses both.
    """
    adj = g.adjacency_masks()
    for v, nbrs in enumerate(adj):
        for a in _bits(nbrs):
            after_a = nbrs & ~adj[a] & -(2 << a)
            for b in _bits(after_a):
                after_b = after_a & ~adj[b] & -(2 << b)
                if after_b:
                    return False, (v, a, b, (after_b & -after_b).bit_length() - 1)
    return True, None


def is_quasi_line(g):
    """Every neighborhood coverable by two cliques.

    Equivalent to the complement of each open neighborhood being
    bipartite.  Returns (True, None) or (False, offending vertex).
    """
    adj = g.adjacency_masks()
    for v in range(g.n):
        nbrs = adj[v]
        # the complement of the graph inside N(v)
        comp = {x: nbrs & ~adj[x] & ~(1 << x) for x in range(g.n) if nbrs >> x & 1}
        if two_coloring(comp, nbrs) is None:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# line-graph recognition

LINE_GRAPH_VERTICES = 12


def recognize_line_graph(g):
    """Find a root multigraph whose line graph equals g exactly.

    Returns the root of `line_graph_root`, or None.
    """
    found = line_graph_root(g)
    return None if found is None else found[0]


def line_graph_root(g):
    """(root, origin) with g the line graph of root, or None.

    Searches for an edge-clique partition in which every vertex lies in
    at most two parts; each part becomes a root vertex and each graph
    vertex v becomes the root edge origin[v] between its (one or two)
    parts.  The line graph of the MultiGraph root, with vertex v as the
    root edge origin[v], is g exactly (verified before returning).
    """
    if g.n > LINE_GRAPH_VERTICES:
        raise ValueError(f"recognition capped at {LINE_GRAPH_VERTICES} vertices")
    cliques = [sum(1 << v for v in c) for c in g.cliques() if len(c) >= 2]

    def cover(rest, once, twice):
        # edge-clique cover of the uncovered edges `rest` (a neighbour
        # mask per vertex) with every vertex in at most two parts: `once`
        # and `twice` are the vertices in at least one and in two parts.
        # Overlap on edges is allowed (parallel root edges share both of
        # their cliques).  The least uncovered edge is covered first.  A
        # vertex entering its second part joins no third, so a part that
        # leaves an edge uncovered at such a vertex leads to no cover.
        a = next((v for v, m in enumerate(rest) if m), None)
        if a is None:
            return []
        edge = 1 << a | rest[a] & -rest[a]
        for cl in cliques:
            if cl & edge == edge and not cl & twice:
                left = tuple(m & ~cl if cl >> v & 1 else m for v, m in enumerate(rest))
                if any(left[v] for v in _bits(once & cl)):
                    continue
                tail = cover(left, once | cl, twice | once & cl)
                if tail is not None:
                    return [cl, *tail]
        return None

    parts = cover(g.adjacency_masks(), 0, 0)
    if parts is None:
        return None
    # every vertex must end in exactly two parts; vertices in fewer
    # get private pendant parts
    extra = len(parts)
    origin = []
    for v in range(g.n):
        ms = [i for i, cl in enumerate(parts) if cl >> v & 1]
        while len(ms) < 2:
            ms.append(extra)
            extra += 1
        origin.append(tuple(ms))
    root = MultiGraph.from_edges(extra, origin)
    lg, origin = line_graph(root, origin)
    return (root, origin) if lg == g else None


# ---------------------------------------------------------------------------
# homogeneous pairs

@dataclass(frozen=True)
class HomogeneousPair:
    a1: frozenset
    a2: frozenset


HOMOGENEOUS_PAIR_VERTICES = 12


def find_homogeneous_pairs(g, nonlinear_only=False):
    """All homogeneous pairs of cliques (|A1| + |A2| >= 3).

    A pair of disjoint cliques qualifies when every outside vertex is
    adjacent to all of A_i or none of A_i, for each i.  The vertices
    outside A that see part of A but not all of it are A's mixed set,
    so the pair qualifies exactly when the mixed set of each clique
    lies inside the other clique.

    With nonlinear_only, keep only pairs whose union induces a 4-cycle.
    Three vertices of one clique would close a triangle, so an induced
    C4 in two disjoint cliques has two vertices x, y in A1 and two in
    A2, and x and y each see one of the latter two and miss the other.
    So the pair is nonlinear exactly when two vertices of A1 have
    neighbourhoods in A2 of which neither contains the other.
    """
    if g.n > HOMOGENEOUS_PAIR_VERTICES:
        raise ValueError(f"search capped at {HOMOGENEOUS_PAIR_VERTICES} vertices")
    adj = g.adjacency_masks()
    cliques = []
    for clique in g.cliques():
        mask = seen = 0
        full = -1
        for a in clique:
            mask |= 1 << a
            seen |= adj[a]
            full &= adj[a]
        cliques.append((clique, mask, seen & ~mask & ~full))
    found = []
    for (c1, m1, mixed1), (c2, m2, mixed2) in combinations(cliques, 2):
        if m1 & m2 or len(c1) + len(c2) < 3 or mixed1 & ~m2 or mixed2 & ~m1:
            continue
        if nonlinear_only:
            inside = [adj[x] & m2 for x in c1]
            if not any(s & ~t and t & ~s for s, t in combinations(inside, 2)):
                continue
        found.append(HomogeneousPair(frozenset(c1), frozenset(c2)))
    return found


# ---------------------------------------------------------------------------
# linear / circular interval orders

LINEAR_INTERVAL_VERTICES = 10  # also the strip order search's cap
CIRCULAR_INTERVAL_VERTICES = 9


def is_linear_interval(g):
    """A vertex order with contiguous neighborhoods, or None.

    The answer is the first order in the sequence of permutations.  The
    reverse of an order is an order, so the first one puts the lesser
    of its two end vertices first (order[0] < order[-1] on two or more
    vertices), and it is also the first of those that do.
    """
    if g.n > LINEAR_INTERVAL_VERTICES:
        raise ValueError(f"search capped at {LINEAR_INTERVAL_VERTICES} vertices")
    return _first_order(g.adjacency_masks(), [], [0] * g.n, (1 << g.n) - 1, _runs_fit)


def is_circular_interval(g):
    """A circular vertex order with contiguous arc neighborhoods, or None.

    The answer is the first order, in the sequence of
    permutations(range(1, n)) after vertex 0, that puts the closed
    neighborhood of every non-isolated vertex on an arc of the circle.
    The reflection of such an order, vertex 0 kept first, is one too,
    so the first one has order[1] < order[-1], and it is also the first
    of those that do.
    """
    if g.n > CIRCULAR_INTERVAL_VERTICES:
        raise ValueError(f"search capped at {CIRCULAR_INTERVAL_VERTICES} vertices")
    n = g.n
    if n <= 2:
        return list(range(n))
    adj = g.adjacency_masks()
    return _first_order(adj, [0], [1] + [0] * (n - 1), (1 << n) - 2, _arcs_fit)


def _first_order(adj, order, at, rest, fits):
    """The first completion of `order` whose every prefix passes `fits`.

    A depth-first search places the unplaced vertices (the mask `rest`)
    in ascending order at each position, so completions come in the
    order of a scan over their permutations.  at[v] masks the prefix
    positions of the placed members of N[v].  fits(adj, at, placed, rest)
    sees each grown prefix, the full order (rest == 0) included; it may
    reject only prefixes that no accepted order extends, so the first
    order found is the scan's.  Returns None when no order is accepted.
    """
    if not rest:
        return order
    bit = 1 << len(order)
    todo = rest
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        grown = at[:]
        grown[u] = bit
        for i, v in enumerate(order):
            if adj[u] >> v & 1:
                grown[v] |= bit
                grown[u] |= 1 << i
        placed = order + [u]
        if fits(adj, grown, placed, rest ^ low):
            found = _first_order(adj, placed, grown, rest ^ low, fits)
            if found is not None:
                return found
    return None


def _runs_fit(adj, at, placed, rest):
    """The prefix test of a linear interval order.

    N[v] fills one run of positions, so its placed part is one run, and
    that run ends at the last placed position while N[v] has unplaced
    vertices.  On a full order this is the contiguity test itself.
    """
    last = 1 << (len(placed) - 1)
    for v in placed:
        m = at[v]
        if not _is_run(m) or (adj[v] & rest and not m & last):
            return False
    return True


def _arcs_fit(adj, at, placed, rest):
    """The prefix test of is_circular_interval.

    An arc meets the segment of placed positions in one run, unless it
    wraps through the unplaced positions; then it holds all of them and
    meets the segment in two runs, one at each end.  So each placed
    non-isolated vertex v needs the placed part of N[v] to be one run,
    or its complement in the prefix to be one run while v is adjacent
    to every unplaced vertex.  On a full order this is the arc test
    itself.
    """
    full = (1 << len(placed)) - 1
    for v in placed:
        if adj[v]:
            m = at[v]
            if not (_is_run(m) or (_is_run(full ^ m) and adj[v] & rest == rest)):
                return False
    return True


def _is_run(m):
    """The set bits of m are consecutive (or there are none)."""
    return m & (m + (m & -m)) == 0


# ---------------------------------------------------------------------------
# interval strips (2-joins)

@dataclass(frozen=True)
class TwoJoin:
    h: frozenset  # strip vertex set
    a1: frozenset
    a2: frozenset
    b1: frozenset
    b2: frozenset

    def to_json(self):
        return {
            "H": sorted(self.h), "A1": sorted(self.a1), "A2": sorted(self.a2),
            "B1": sorted(self.b1), "B2": sorted(self.b2),
        }

    @staticmethod
    def from_json(doc):
        return TwoJoin(*(frozenset(require_ints(doc, key)) for key in ("H", "A1", "A2", "B1", "B2")))


def verify_2join(g, tj):
    """Check the four strip conditions; returns (True, None) or (False, why).

    (i) the strip induces a nonempty linear interval graph with the end
    cliques at its ends; (ii) A1, A2, B1, B2 are cliques; (iii) A1 is
    joined to B1 and A2 to B2; (iv) no other edges leave the strip.
    A vertex id outside 0..n-1 in any of the five sets raises ValueError.
    """
    why, _ = _strip_order(g, tj)
    return why is None, why


def _strip_order(g, tj):
    """(why, order): the first strip condition that fails, in the order
    verify_2join tests them, or None and the linear interval order of
    the strip with A1 first and A2 last, in the labels of g."""
    for v in sorted(tj.h | tj.a1 | tj.a2 | tj.b1 | tj.b2):
        _check_vertex(v, g.n)
    h, a1, a2, b1, b2 = map(_mask, (tj.h, tj.a1, tj.a2, tj.b1, tj.b2))
    if not h:
        return "(i) empty strip", None
    if (a1 | a2) & ~h:
        return "(i) end cliques not inside the strip", None
    if h & (b1 | b2):
        return "(ii) outside cliques meet the strip", None
    if len(tj.h) > LINEAR_INTERVAL_VERTICES:
        raise ValueError(
            f"interval-order search capped at {LINEAR_INTERVAL_VERTICES} strip vertices")
    adj = g.adjacency_masks()
    order = _interval_order_with_ends(adj, h, tj.a1, tj.a2)
    if order is None:
        return "(i) strip is not a linear interval graph with the end cliques at its ends", None
    for name, m in (("A1", a1), ("A2", a2), ("B1", b1), ("B2", b2)):
        if not _is_clique(adj, m):
            return f"(ii) {name} is not a clique", None
    for name, end, out in (("A1 not joined to B1", a1, b1), ("A2 not joined to B2", a2, b2)):
        if any(adj[v] & out != out for v in _bits(end)):
            return f"(iii) {name}", None
    for v in _bits(h):
        allowed = (b1 if a1 >> v & 1 else 0) | (b2 if a2 >> v & 1 else 0)
        if adj[v] & ~h & ~allowed:
            return "(iv) stray edge between the strip and the outside", None
    return None, order


def _mask(vertices):
    """The bitmask of a set of vertex ids."""
    return sum(1 << v for v in vertices)


def _is_clique(adj, m):
    """The vertex set m (a mask) is a clique."""
    return all((adj[v] | 1 << v) & m == m for v in _bits(m))


def _interval_order_with_ends(adj, strip, a1, a2):
    """Linear interval order of the vertex set `strip` (a mask) placing
    the vertices of A1 first and those of A2 last, or None."""
    tail = strip.bit_count() - len(a2)

    def fits(adj, at, placed, rest):
        p, u = len(placed) - 1, placed[-1]
        return ((p >= len(a1) or u in a1) and (p < tail or u in a2)
                and _runs_fit(adj, at, placed, rest))

    return _first_order(adj, [], [0] * len(adj), strip, fits)


def reduce_2join(g, tj):
    """One reduction step on a canonical reducible strip.

    With v1 the leftmost strip vertex and C = N_H(v1) \\ A1, the strip
    is reducible on the A1 side when H is incomplete and the strip
    neighborhood of A1 equals C.  The reduction moves A1 (and the part
    of C inside A2) out of the strip: the new strip is
    H \\ (A1 ∪ (C ∩ A2)) with end cliques C \\ A2 and A2 \\ C, outside
    cliques A1 ∪ (C ∩ A2) and B2 ∪ (C ∩ A2).  The mirrored step applies
    on the A2 side.  The result is canonical, strictly smaller, and
    passes verify_2join.  A valid canonical strip that is complete or
    reducible on neither side gives None; a non-canonical or invalid
    one raises ValueError.
    """
    if tj.a1 & tj.a2:
        raise ValueError("strip is not canonical (end cliques intersect)")
    why, order = _strip_order(g, tj)
    if why is not None:
        raise ValueError(f"invalid strip: {why}")
    adj = g.adjacency_masks()
    h, a1, a2, b1, b2 = map(_mask, (tj.h, tj.a1, tj.a2, tj.b1, tj.b2))
    if _is_clique(adj, h):
        return None

    def try_side(end_vertex, near, far, far_b):
        c = adj[end_vertex] & h & ~near
        reach = 0
        for a in _bits(near):
            reach |= adj[a]
        if reach & h & ~near != c:
            return None
        moved = c & far
        return TwoJoin(*(frozenset(_bits(m)) for m in (
            h & ~near & ~moved, c & ~far, far & ~c, near | moved, far_b | moved)))

    res = try_side(order[0], a1, a2, b2)
    if res is None:
        mirrored = try_side(order[-1], a2, a1, b1)
        if mirrored is not None:
            res = TwoJoin(mirrored.h, mirrored.a2, mirrored.a1, mirrored.b2, mirrored.b1)
    return res


# ---------------------------------------------------------------------------
# strip compositions

@dataclass(frozen=True)
class Strip:
    graph: SimpleGraph
    x: frozenset  # end clique attached to the edge's first endpoint
    y: frozenset  # end clique attached to the edge's second endpoint


@dataclass(frozen=True)
class CompositionSpec:
    hub_n: int
    hub_edges: tuple  # (u, v) pairs, u == v allowed (loops), repeats allowed
    strips: tuple  # one Strip per hub edge

    @staticmethod
    def from_json(doc):
        strips = []
        for i, s in enumerate(require_list(doc, "strips")):
            where = f"strips[{i}]."
            graph = SimpleGraph.from_edges(require(s, "n", where), require_pairs(s, "edges", where))
            strips.append(Strip(graph, frozenset(require_ints(s, "X", where)),
                                frozenset(require_ints(s, "Y", where))))
        hub_n = require(doc, "hub_n")
        if not isinstance(hub_n, int) or hub_n < 0:
            raise FormatError(f"hub_n = {hub_n!r} is not a vertex count")
        hub_edges = []
        for i, e in enumerate(require_list(doc, "hub_edges")):
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(v, int) and 0 <= v < hub_n for v in e)):
                raise FormatError(
                    f"hub_edges[{i}] = {e!r} is not a pair of hub vertices 0..{hub_n - 1}")
            hub_edges.append(tuple(e))
        return CompositionSpec(hub_n, tuple(hub_edges), tuple(strips))


def compose(spec):
    """Disjoint union of the strips with each hub-vertex class made a clique.

    The class of hub vertex v collects the X-clique of every hub edge
    leaving v and the Y-clique of every hub edge entering v; a loop at
    v contributes both of its ends.
    """
    if len(spec.strips) != len(spec.hub_edges):
        raise ValueError("one strip per hub edge required")
    for strip in spec.strips:
        adj = strip.graph.adjacency_masks()
        for name, cl in (("X", frozenset(strip.x)), ("Y", frozenset(strip.y))):
            for v in cl:
                _check_vertex(v, strip.graph.n)
            if not strip.graph.is_clique(sorted(cl)):
                raise ValueError(f"strip end {name} is not a clique")
            if not all(_is_clique(adj, adj[v] & ~_mask(cl)) for v in cl):
                raise ValueError("strip end vertex with non-clique outside neighborhood")
    edges = []
    classes = {v: set() for v in range(spec.hub_n)}
    off = 0
    for (u, v), strip in zip(spec.hub_edges, spec.strips):
        edges.extend((a + off, b + off) for a, b in strip.graph.edge_list())
        classes[u].update(x + off for x in strip.x)
        classes[v].update(y + off for y in strip.y)
        off += strip.graph.n
    for cl in classes.values():
        edges.extend(combinations(sorted(cl), 2))
    return SimpleGraph.from_edges(off, edges)


# ---------------------------------------------------------------------------
# reducibility scanner

BK_SCAN_SUBSETS = 1 << 20


def bk_free_scan(g, delta=None, max_sub=None):
    """Hunt induced subgraphs carrying a certificate under the f_H budget.

    f_H(v) = d_H(v) - 1 + delta - d_G(v) for each vertex v of an
    induced subgraph H.  `delta` defaults to the maximum degree of g.
    For every induced subgraph up to max_sub vertices, tests the
    orientation certificate first and the kernel route (with doubling,
    on subgraphs of at most F_KP_VERTICES vertices) second.  Returns a
    list of (vertex tuple, kind, certificate); empty means no reducible
    piece was found within the caps.  When there are more than
    BK_SCAN_SUBSETS vertex subsets of 1..max_sub vertices, or max_sub
    is below 1 and so would scan none, it raises ValueError before it
    looks at any of them.

    The budget is read from the neighbour masks of g, and no subgraph
    is built for a subset on which some f_H(v) is below 1.  The answer
    depends only on the local question (size, local edges, budget), so
    the scan asks each one once and keeps the answers for the length of
    the call; two hits may hold the same certificate object.
    """
    if delta is None:
        delta = g.max_degree()
    if max_sub is None:
        max_sub = g.n
    elif max_sub < 1:
        raise ValueError(f"max_sub {max_sub} scans no subset; give at least 1")
    subsets = sum(comb(g.n, k) for k in range(1, min(max_sub, g.n) + 1))
    if subsets > BK_SCAN_SUBSETS:
        raise ValueError(f"scan capped at {BK_SCAN_SUBSETS} vertex subsets, "
                         f"{subsets} asked; lower --max-sub")
    adj = g.adjacency_masks()
    # f_H(v) = |N(v) & H| + base[v]
    base = [delta - 1 - d for d in g.degrees()]
    answers = {}
    found = []
    for size in range(1, min(max_sub, g.n) + 1):
        pairs = list(combinations(range(size), 2))
        for vs in combinations(range(g.n), size):
            mask = 0
            for v in vs:
                mask |= 1 << v
            fvals = tuple((adj[v] & mask).bit_count() + base[v] for v in vs)
            if min(fvals) < 1:
                continue
            edges = tuple((i, j) for i, j in pairs if adj[vs[i]] >> vs[j] & 1)
            key = (size, edges, fvals)
            if key not in answers:
                answers[key] = _reducible(SimpleGraph.from_edges(size, edges),
                                          ListSizeFn(fvals))
            if answers[key] is not None:
                found.append((vs,) + answers[key])
    return found


def _reducible(sub, f):
    """(kind, certificate) for the first route that certifies sub, or None."""
    at_ok, cert = is_f_AT(sub, f)
    if at_ok:
        return "orientation", cert
    if sub.n > F_KP_VERTICES:
        return None
    kp = is_f_KP(sub, f, allow_doubling=True)
    return None if kp is None else ("kernel", kp)
