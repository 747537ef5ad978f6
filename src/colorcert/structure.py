"""Structural recognizers and constructions for claw-free territory.

Covers claw detection, quasi-line tests, line-graph recognition by
edge-clique partitions, homogeneous clique pairs, linear/circular
interval orders, interval strip attachments and their reductions, strip
compositions over a hub multigraph, and the reducibility scanner that
hunts induced subgraphs carrying orientation or kernel certificates.
"""

from dataclasses import dataclass
from itertools import combinations

from .alon_tarsi import is_f_AT
from .graphs import ListSizeFn, MultiGraph, SimpleGraph, _check_vertex, line_graph
from .kernel import F_KP_VERTICES, is_f_KP


def is_claw_free(g):
    """Return (True, None) or (False, (center, a, b, c))."""
    adj = g.adjacency_masks()
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        for a, b, c in combinations(nbrs, 3):
            if not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1):
                return False, (v, a, b, c)
    return True, None


def is_quasi_line(g):
    """Every neighborhood coverable by two cliques.

    Equivalent to the complement of each open neighborhood being
    bipartite.  Returns (True, None) or (False, offending vertex).
    """
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        if not _complement_bipartite(g, nbrs):
            return False, v
    return True, None


def _complement_bipartite(g, verts):
    adj = g.adjacency_masks()
    color = {}
    for start in verts:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in verts:
                if y == x or adj[x] >> y & 1:
                    continue
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


# ---------------------------------------------------------------------------
# line-graph recognition

LINE_GRAPH_VERTICES = 12


def recognize_line_graph(g):
    """Find a root multigraph whose line graph equals g exactly.

    Searches for an edge-clique partition in which every vertex lies in
    at most two parts; each part becomes a root vertex and each graph
    vertex becomes a root edge between its (one or two) parts.  Returns
    a MultiGraph whose line graph, with vertex v as the root edge built
    for v, is g exactly (verified before returning), or None.
    """
    if g.n > LINE_GRAPH_VERTICES:
        raise ValueError(f"recognition capped at {LINE_GRAPH_VERTICES} vertices")
    edges = g.edge_list()
    if not edges:
        # n isolated vertices: root is a matching of n edges
        return MultiGraph.from_edges(2 * g.n, [(2 * i, 2 * i + 1) for i in range(g.n)]) if g.n else MultiGraph.from_edges(0, [])

    all_cliques = [frozenset(c) for c in g.cliques() if len(c) >= 2]

    def cover(remaining, used, load):
        # edge-clique cover with every vertex in at most two parts;
        # overlap on edges is allowed (parallel root edges share both
        # of their cliques)
        if not remaining:
            return list(used)
        pivot = min(remaining, key=lambda e: tuple(sorted(e)))
        for cl in all_cliques:
            if not pivot <= cl:
                continue
            if any(load[v] >= 2 for v in cl):
                continue
            inside = {frozenset(p) for p in combinations(sorted(cl), 2)}
            for v in cl:
                load[v] += 1
            used.append(cl)
            res = cover(remaining - inside, used, load)
            if res is not None:
                return res
            used.pop()
            for v in cl:
                load[v] -= 1
        return None

    load = [0] * g.n
    parts = cover(set(g.edges), [], load)
    if parts is None:
        return None
    # every vertex must end in exactly two parts; vertices in fewer
    # get private pendant parts
    membership = {v: [i for i, cl in enumerate(parts) if v in cl] for v in range(g.n)}
    extra = len(parts)
    origin = []
    for v in range(g.n):
        ms = membership[v]
        while len(ms) < 2:
            ms.append(extra)
            extra += 1
        origin.append((min(ms), max(ms)))
    root = MultiGraph.from_edges(extra, origin)
    if line_graph(root, origin)[0].edges != g.edges:
        return None
    return root


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
    adjacent to all of A_i or none of A_i, for each i.  With
    nonlinear_only, keep only pairs whose union induces a 4-cycle.
    """
    if g.n > HOMOGENEOUS_PAIR_VERTICES:
        raise ValueError(f"search capped at {HOMOGENEOUS_PAIR_VERTICES} vertices")
    adj = g.adjacency_masks()
    found = []
    for a1, a2 in combinations(map(frozenset, g.cliques()), 2):
        if a1 & a2 or len(a1) + len(a2) < 3:
            continue
        if not _homogeneous(g, a1, other=a2) or not _homogeneous(g, a2, other=a1):
            continue
        if nonlinear_only and not _contains_induced_c4(adj, a1 | a2):
            continue
        found.append(HomogeneousPair(a1, a2))
    return found


def _homogeneous(g, aset, other=frozenset()):
    outside = set(range(g.n)) - aset - other
    for v in outside:
        hits = sum(1 for a in aset if g.has_edge(v, a))
        if hits not in (0, len(aset)):
            return False
    return True


def _contains_induced_c4(adj, verts):
    # the only 2-regular graph on 4 vertices is C4
    for quad in combinations(sorted(verts), 4):
        m = sum(1 << v for v in quad)
        if all((adj[v] & m).bit_count() == 2 for v in quad):
            return True
    return False


# ---------------------------------------------------------------------------
# linear / circular interval orders

LINEAR_INTERVAL_VERTICES = 10
CIRCULAR_INTERVAL_VERTICES = 9


def is_linear_interval(g):
    """A vertex order with contiguous neighborhoods, or None.

    The answer is the first order in the sequence of permutations that
    puts one of each reversed pair first (order[0] < order[-1]).
    """
    if g.n > LINEAR_INTERVAL_VERTICES:
        raise ValueError(f"search capped at {LINEAR_INTERVAL_VERTICES} vertices")
    if g.n <= 1:
        return list(range(g.n))
    adj = g.adjacency_masks()
    return _first_order(adj, [], [0] * g.n, (1 << g.n) - 1, lambda adj, at, placed, rest: (
        (rest or placed[0] < placed[-1]) and _runs_fit(adj, at, placed, rest)))


def is_circular_interval(g):
    """A circular vertex order with contiguous arc neighborhoods, or None.

    The answer is the first order, in the sequence of
    permutations(range(1, n)) after vertex 0, that puts one of each
    reflected pair first (order[1] < order[-1]) and the closed
    neighborhood of every non-isolated vertex on an arc of the circle.
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
    itself, and the reflection of an earlier order is rejected.
    """
    if not rest and placed[1] > placed[-1]:
        return False
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
        return TwoJoin(
            frozenset(doc["H"]), frozenset(doc["A1"]), frozenset(doc["A2"]),
            frozenset(doc["B1"]), frozenset(doc["B2"]),
        )


STRIP_VERTICES = 10


def verify_2join(g, tj):
    """Check the four strip conditions; returns (True, None) or (False, why).

    (i) the strip induces a nonempty linear interval graph with the end
    cliques at its ends; (ii) A1, A2, B1, B2 are cliques; (iii) A1 is
    joined to B1 and A2 to B2; (iv) no other edges leave the strip.
    A vertex id outside 0..n-1 in any of the five sets raises ValueError.
    """
    for v in sorted(tj.h | tj.a1 | tj.a2 | tj.b1 | tj.b2):
        _check_vertex(v, g.n)
    h = tj.h
    if not h:
        return False, "(i) empty strip"
    if not (tj.a1 <= h and tj.a2 <= h):
        return False, "(i) end cliques not inside the strip"
    if h & (tj.b1 | tj.b2):
        return False, "(ii) outside cliques meet the strip"
    if len(h) > STRIP_VERTICES:
        raise ValueError(f"interval-order search capped at {STRIP_VERTICES} strip vertices")
    sub, order_map = g.induced(h)
    idx = {v: i for i, v in enumerate(order_map)}
    interval = _interval_order_with_ends(sub, {idx[v] for v in tj.a1}, {idx[v] for v in tj.a2})
    if interval is None:
        return False, "(i) strip is not a linear interval graph with the end cliques at its ends"
    for name, cl in (("A1", tj.a1), ("A2", tj.a2), ("B1", tj.b1), ("B2", tj.b2)):
        if not g.is_clique(sorted(cl)):
            return False, f"(ii) {name} is not a clique"
    for a in tj.a1:
        for b in tj.b1:
            if not g.has_edge(a, b):
                return False, "(iii) A1 not joined to B1"
    for a in tj.a2:
        for b in tj.b2:
            if not g.has_edge(a, b):
                return False, "(iii) A2 not joined to B2"
    outside = set(range(g.n)) - h
    for v in h:
        for w in outside:
            if not g.has_edge(v, w):
                continue
            ok = (v in tj.a1 and w in tj.b1) or (v in tj.a2 and w in tj.b2)
            if not ok:
                return False, "(iv) stray edge between the strip and the outside"
    return True, None


def _interval_order_with_ends(sub, a1_idx, a2_idx):
    """Linear interval order placing A1 first and A2 last, or None."""
    n = sub.n
    adj = sub.adjacency_masks()
    tail = n - len(a2_idx)

    def fits(adj, at, placed, rest):
        p, u = len(placed) - 1, placed[-1]
        return ((p >= len(a1_idx) or u in a1_idx) and (p < tail or u in a2_idx)
                and _runs_fit(adj, at, placed, rest))

    return _first_order(adj, [], [0] * n, (1 << n) - 1, fits)


def reduce_2join(g, tj):
    """One reduction step on a canonical reducible strip.

    With v1 the leftmost strip vertex and C = N_H(v1) \\ A1, the strip
    is reducible on the A1 side when H is incomplete and the strip
    neighborhood of A1 equals C.  The reduction moves A1 (and the part
    of C inside A2) out of the strip: the new strip is
    H \\ (A1 ∪ (C ∩ A2)) with end cliques C \\ A2 and A2 \\ C, outside
    cliques A1 ∪ (C ∩ A2) and B2 ∪ (C ∩ A2).  The mirrored step applies
    on the A2 side.  The result is canonical, strictly smaller, and
    passes verify_2join.
    """
    if tj.a1 & tj.a2:
        raise ValueError("strip is not canonical (end cliques intersect)")
    ok, why = verify_2join(g, tj)
    if not ok:
        raise ValueError(f"invalid strip: {why}")
    sub, order_map = g.induced(tj.h)
    idx = {v: i for i, v in enumerate(order_map)}
    if sub.is_clique(range(sub.n)):
        raise ValueError("strip is complete, not reducible")
    order = _interval_order_with_ends(
        sub, {idx[v] for v in tj.a1}, {idx[v] for v in tj.a2}
    )

    def try_side(end_vertex, near, far, far_b):
        c = {w for w in tj.h if g.has_edge(end_vertex, w)} - near
        n_near = set()
        for a in near:
            n_near |= {w for w in tj.h if g.has_edge(a, w)}
        n_near -= near
        if n_near != c:
            return None
        moved = c & far
        return TwoJoin(
            frozenset(tj.h - near - moved),
            frozenset(c - far),
            frozenset(far - c),
            frozenset(near | moved),
            frozenset(far_b | moved),
        )

    v1 = order_map[order[0]]
    vt = order_map[order[-1]]
    res = try_side(v1, tj.a1, tj.a2, tj.b2)
    if res is None:
        mirrored = try_side(vt, tj.a2, tj.a1, tj.b1)
        if mirrored is None:
            raise ValueError("strip is not reducible")
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
        for s in doc["strips"]:
            graph = SimpleGraph.from_edges(s["n"], s["edges"])
            strips.append(Strip(graph, frozenset(s["X"]), frozenset(s["Y"])))
        return CompositionSpec(doc["hub_n"], tuple(tuple(e) for e in doc["hub_edges"]), tuple(strips))


def compose(spec):
    """Disjoint union of the strips with each hub-vertex class made a clique.

    The class of hub vertex v collects the X-clique of every hub edge
    leaving v and the Y-clique of every hub edge entering v; a loop at
    v contributes both of its ends.
    """
    if len(spec.strips) != len(spec.hub_edges):
        raise ValueError("one strip per hub edge required")
    for strip in spec.strips:
        for name, cl in (("X", frozenset(strip.x)), ("Y", frozenset(strip.y))):
            if not strip.graph.is_clique(sorted(cl)):
                raise ValueError(f"strip end {name} is not a clique")
            for v in cl:
                others = set(strip.graph.neighbors(v)) - cl
                if not strip.graph.is_clique(sorted(others)):
                    raise ValueError("strip end vertex with non-clique outside neighborhood")
    offsets = []
    total = 0
    for strip in spec.strips:
        offsets.append(total)
        total += strip.graph.n
    edges = []
    for strip, off in zip(spec.strips, offsets):
        edges.extend((u + off, v + off) for u, v in strip.graph.edge_list())
    classes = {v: set() for v in range(spec.hub_n)}
    for (u, v), strip, off in zip(spec.hub_edges, spec.strips, offsets):
        classes[u].update(x + off for x in frozenset(strip.x))
        classes[v].update(y + off for y in frozenset(strip.y))
    for cl in classes.values():
        edges.extend(combinations(sorted(cl), 2))
    seen = set()
    dedup = []
    for u, v in edges:
        key = frozenset((u, v))
        if key not in seen and u != v:
            seen.add(key)
            dedup.append((u, v))
    return SimpleGraph.from_edges(total, dedup)


# ---------------------------------------------------------------------------
# reducibility scanner

def bk_free_scan(g, delta=None, max_sub=None):
    """Hunt induced subgraphs carrying a certificate under the f_H budget.

    f_H(v) = d_H(v) - 1 + delta - d_G(v) for each vertex v of an
    induced subgraph H.  `delta` defaults to the maximum degree of g.
    For every induced subgraph up to max_sub vertices, tests the
    orientation certificate first and the kernel route (with doubling,
    on subgraphs of at most F_KP_VERTICES vertices) second.  Returns a
    list of (vertex tuple, kind, certificate); empty means no reducible
    piece was found within the caps.

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
