"""Kernels, kernel-perfect orientations, and certificates built from them.

A kernel of a digraph is an independent set (in the underlying support;
a bidirected pair counts as an edge) such that every vertex outside it
has an out-neighbor inside it.  A digraph is kernel-perfect when every
induced subdigraph has a kernel.  Kernel-perfect orientations with
out-degrees below a list-size budget certify both choosability and the
online game version of it.
"""

from dataclasses import dataclass

from .graphs import (
    Digraph, FormatError, ListSizeFn, MultiGraph, OrientationCertificate, _bits, copy_stars,
    degree_route, edge_copies, line_graph, require, require_pairs, require_records,
    two_coloring,
)


def find_kernel(d, s=None):
    """The least kernel, by size and then lexicographically, of the
    subdigraph induced on s (default: all vertices), as a set; else None.

    The search grows a partial kernel k.  The lowest vertex v of s that
    k does not absorb (v is not in k and has no arc into k) is in every
    kernel holding k, or one of its out-neighbours in s is, so the
    branches take each of these.  A branch blocks the support
    neighbours of what it takes and the vertices that the branches
    before it took, so every kernel is met once.  A branch is dropped
    once it would be larger than the best kernel found.
    """
    out, into = d.arc_masks()
    whole = (1 << d.n) - 1 if s is None else sum(1 << v for v in set(s))
    best, limit = None, d.n + 1  # the best kernel found and its size
    stack = [(0, 0, 0)]  # (partial kernel, blocked, absorbed) vertex masks
    while stack:
        k, blocked, absorbed = stack.pop()
        size = k.bit_count()
        rest = whole & ~absorbed
        if not rest:
            # of two kernels of one size, the one holding the least
            # vertex of their difference comes first
            if size < limit or size == limit and k & (k ^ best) & -(k ^ best):
                best, limit = k, size
        elif size < limit:
            low = rest & -rest
            options = (low | out[low.bit_length() - 1] & whole) & ~blocked
            # pushed from the highest, so the lowest vertex taken is popped first
            while options:
                w = options.bit_length() - 1
                options ^= 1 << w
                stack.append((k | 1 << w, blocked | options | 1 << w | out[w] | into[w],
                              absorbed | 1 << w | into[w]))
    return None if best is None else {v for v in range(d.n) if best >> v & 1}


KERNEL_PERFECT_VERTICES = 12


def is_kernel_perfect(d):
    """Exhaustive kernel-perfection check.

    Returns (True, None) or (False, first failing induced vertex set),
    scanning induced sets by increasing size then lexicographically.

    An independent set K is a kernel of S exactly when K <= S <= K | In(K),
    In(K) being the vertices with an arc into K.  So one pass over the
    independent sets marks every vertex set that has a kernel.
    """
    if d.n > KERNEL_PERFECT_VERTICES:
        raise ValueError(f"exhaustive check capped at {KERNEL_PERFECT_VERTICES} vertices")
    n = d.n
    into = d.arc_masks()[1]
    support = d.support_masks()
    has_kernel = bytearray(1 << n)
    # (K, In(K), vertices above max(K) with no support edge to K)
    stack = [(0, 0, (1 << n) - 1)]
    while stack:
        k, reach, free = stack.pop()
        s = reach
        while True:
            has_kernel[k | s] = 1
            if not s:
                break
            s = (s - 1) & reach
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            stack.append((k | low, reach | into[v], free & ~support[v]))
    if 0 not in has_kernel:
        return True, None
    failing = [s for s, ok in enumerate(has_kernel) if not ok]
    size = min(s.bit_count() for s in failing)
    return False, set(min(list(_bits(s)) for s in failing if s.bit_count() == size))


# ---------------------------------------------------------------------------
# the line-graph characterization

def kp_line_characterization(d, root, origin=None):
    """Decide kernel-perfection for an orientation of a line graph.

    The orientation must cover the line graph of `root` exactly (every
    edge gets one or both arc directions); `origin` may relabel the
    line-graph vertices by giving the root edge of each.  An
    orientation of another graph, or an `origin` that is not a
    relabelling of the root's edge copies, is no kernel-perfect
    orientation of L(root): False.

    For a bipartite root B, L(B) and all its induced subgraphs are
    perfect (König).  By Boros and Gurvich ("Perfect graphs are kernel
    solvable", 1996) an orientation of a perfect graph, bidirected pairs
    allowed, is then kernel-perfect iff the one-way arcs inside every
    clique are acyclic; a one-way cycle in a clique leaves that clique
    without a kernel.  B has no triangle, so the maximal cliques of L(B)
    are its stars, and the test runs star by star.  Any other root gets
    the exhaustive `is_kernel_perfect`, which raises above its cap.
    """
    try:
        lg, origin = line_graph(root, origin)
    except ValueError:
        return False
    if d.support_masks() != lg.adjacency_masks():
        return False
    if bipartition(root) is None:
        return is_kernel_perfect(d)[0]
    one_way = [o & ~i for o, i in zip(*d.arc_masks())]
    for star in copy_stars(root.n, origin):
        # peel off sinks of the one-way arcs until the star is empty
        rest = sum(1 << i for i in star)
        while rest:
            sink = next((i for i in star if rest >> i & 1 and not one_way[i] & rest), None)
            if sink is None:
                return False
            rest ^= 1 << sink
    return True


# ---------------------------------------------------------------------------
# certificates

@dataclass(eq=False)
class KPCertificate(OrientationCertificate):
    """A kernel-perfect orientation with out-degrees below a budget.

    `digraph` may contain bidirected pairs, which model doubled edges
    of a supergraph of `graph`; `supergraph_edges` reads them off the
    digraph.  `root` (optional) is a multigraph whose line graph is the
    underlying graph; `check()` then goes through
    `kp_line_characterization`, which tests stars when the root is
    bipartite and runs the exhaustive check otherwise.  `to_json` names
    the route `check()` takes.
    """

    root: MultiGraph | None = None
    origin: tuple | list | None = None

    @property
    def supergraph_edges(self):
        """The doubled (bidirected) pairs (u, v), u < v, ascending."""
        return self.digraph.doubled_pairs()

    def check(self):
        """Re-verify all claims: support, out-degree bound, kernel-perfection.
        A digraph or budget on another vertex count fails."""
        if not self.fits():
            return False
        if self.root is not None:
            return kp_line_characterization(self.digraph, self.root, origin=self.origin)
        ok, _ = is_kernel_perfect(self.digraph)
        return ok

    def to_json(self):
        doc = {
            **super().to_json(),
            "doubled": [list(e) for e in self.supergraph_edges],
            "verified_by": ("characterization" if self.root is not None
                            and bipartition(self.root) is not None else "exhaustive"),
        }
        if self.root is not None:
            doc["root"] = {"n": self.root.n, "edges": [list(e) for e in self.root.edges]}
        if self.origin is not None:
            doc["origin"] = [list(e) for e in self.origin]
        return doc

    @staticmethod
    def from_json(doc):
        """Read a certificate document; FormatError naming the key when
        a value has the wrong shape or size, when the line graph of
        'root', labelled by 'origin', is not the graph, or when 'doubled'
        (empty when absent) is not the orientation's bidirected pairs."""
        g, f, d = OrientationCertificate.read(doc)
        root = None
        origin = require_pairs(doc, "origin") if "origin" in doc else None
        if "root" in doc:
            root = MultiGraph.from_edges(require(doc["root"], "n", "root."),
                                         require_records(doc["root"], "edges", "root."))
            try:
                lg, _ = line_graph(root, origin)
            except ValueError:
                raise FormatError("JSON key 'origin' is not a relabelling of the "
                                  "edge copies of 'root'") from None
            if lg != g:
                raise FormatError("JSON key 'root' has a line graph other than the "
                                  "certificate's graph")
        doubled = require_pairs(doc, "doubled") if "doubled" in doc else []
        if not (all(type(x) is int for e in doubled for x in e)
                and {tuple(sorted(e)) for e in doubled} == set(d.doubled_pairs())):
            raise FormatError("JSON key 'doubled' is not the bidirected pairs of 'orientation'")
        return KPCertificate(g, f, d, root=root, origin=origin)


F_KP_VERTICES = 8


def is_f_KP(g, f, allow_doubling=False):
    """Search for a kernel-perfect (super)orientation within budget f.

    Each edge is tried one way, the other way, and (when doubling is
    allowed) both ways at once, in a fixed deterministic order, pruning
    on the out-degree bound d+(v) <= f(v) - 1.  Returns the first
    certificate found, else None.  When `degree_route` says no, no such
    orientation exists and there is no search.

    A one-way arc u->v is refused when one-way arcs v->w->u are placed:
    the three arcs are then the whole subdigraph induced on {u, v, w},
    a 3-cycle with no kernel, so every orientation below that choice
    fails `is_kernel_perfect`, and the first one found is unchanged.
    """
    if g.n > F_KP_VERTICES:
        raise ValueError(f"search capped at {F_KP_VERTICES} vertices")
    budget = [f(v) for v in range(g.n)]
    if any(k < 1 for k in budget) or degree_route(g.adjacency_masks(), budget) is False:
        return None
    edges = g.edge_list()
    limit = [k - 1 for k in budget]
    out = [0] * g.n  # out- and in-masks of the placed arcs
    into = [0] * g.n

    def flip(arcs):
        for t, h in arcs:
            out[t] ^= 1 << h
            into[h] ^= 1 << t

    def place(k):
        """The first kernel-perfect digraph below the placed arcs, or None."""
        if k == len(edges):
            d = Digraph.from_arcs(g.n, [(t, h) for t in range(g.n) for h in _bits(out[t])])
            return d if is_kernel_perfect(d)[0] else None
        u, v = edges[k]
        options = [((u, v),), ((v, u),)]
        if allow_doubling:
            options.append(((u, v), (v, u)))
        for arcs in options:
            a, b = arcs[0]
            if (any(out[t].bit_count() == limit[t] for t, _ in arcs)
                    or len(arcs) == 1 and out[b] & ~into[b] & into[a] & ~out[a]):
                continue
            flip(arcs)
            d = place(k + 1)
            if d is not None:
                return d
            flip(arcs)
        return None

    d = place(0)
    return None if d is None else KPCertificate(g, f, d)


# ---------------------------------------------------------------------------
# constructions for line graphs of bipartite multigraphs

def bipartition(b):
    """Two-color the support of a multigraph; None if an odd cycle exists.

    Returns the sides (X, Y) as ascending lists; the least vertex of
    each component is in X.
    """
    sides = two_coloring(b.adjacency_masks(), (1 << b.n) - 1)
    if sides is None:
        return None
    x, y = ([v for v in range(b.n) if side >> v & 1] for side in sides)
    return x, y


def bipartite_edge_coloring(b):
    """Proper edge coloring of a bipartite multigraph with Delta colors.

    Standard augmenting-path coloring: insert edge copies one at a
    time; with a the least color free at u and c the least free at v,
    swap a and c along the alternating chain from v (empty when a is
    free at v).  In a bipartite graph the chain cannot reach u, so a
    becomes free at both endpoints.  Returns a list of colors
    (1-based), one per edge copy in line-graph vertex order.
    """
    copies = edge_copies(b)
    delta = max(b.degrees()) if b.edges else 0
    at = [[None] * (delta + 1) for _ in range(b.n)]  # at[v][c]: the copy colored c at v
    colors = [None] * len(copies)
    for idx, (u, v) in enumerate(copies):
        a = at[u].index(None, 1)
        c = at[v].index(None, 1)
        w, col = v, a
        while True:
            row = at[w]
            j = row[col]
            row[a], row[c] = row[c], row[a]
            if j is None:
                break
            col = colors[j] = a + c - col
            w = sum(copies[j]) - w
        colors[idx] = a
        at[u][a] = at[v][a] = idx
    return colors


def galvin_orientation(b):
    """Kernel-perfect orientation of the line graph of bipartite b.

    The certificate budget is f(e) = max of the endpoint degrees of the
    root edge e, and every out-degree stays strictly below it.  The
    primary construction colors the edges properly with Delta colors
    and orders each star by color, ascending on one side and descending
    on the other; if that misses the per-edge bound (possible on
    irregular inputs), a backtracking search over per-vertex star
    orders takes over (`_search_star_orders`, pruned to the subtrees
    that can still meet every rank-sum bound; it raises ValueError on a
    root with more than STAR_ORDER_DEPTH vertices, or more copies at a
    vertex).  Either orientation is re-checked through the line-graph
    characterization, which needs only its star test here because the
    root is bipartite.
    """
    parts = bipartition(b)
    if parts is None:
        raise ValueError("input multigraph is not bipartite")
    lg, origin = line_graph(b)
    degs = b.degrees()
    f = ListSizeFn(tuple(max(degs[u], degs[v]) for u, v in origin))
    xset = set(parts[0])

    colors = bipartite_edge_coloring(b)
    # star positions: at an X-vertex later colors come later; at a
    # Y-vertex later colors come earlier.  Parallel copies tie-break by
    # index so no bidirected pairs arise.  Arcs run from later positions
    # toward earlier ones, so each star is listed from its last position.
    d = orientation_from_clique_orders(lg.n, [
        sorted(star, key=lambda i: (colors[i] if v in xset else -colors[i], i),
               reverse=True)
        for v, star in enumerate(copy_stars(b.n, origin))
    ])
    cert = KPCertificate(lg, f, d, root=b)
    if cert.check():
        return cert

    d = _search_star_orders(b, origin, f)
    if d is None:
        raise RuntimeError("no orientation met the degree bound")
    cert = KPCertificate(lg, f, d, root=b)
    if not cert.check():
        raise RuntimeError("star-order orientation failed its certificate check")
    return cert


# The star-order search recurses once per root vertex and, inside that,
# once per copy at the vertex being ordered; both counts stay at most this.
STAR_ORDER_DEPTH = 300


def _search_star_orders(b, origin, f):
    """Backtracking over per-vertex star orders meeting the budget.

    With positions p_v(e) counted from the absorbing end, the out-degree
    of a copy e = uv is at most p_u(e) + p_v(e), and the search demands
    the rank-sum constraint p_u(e) + p_v(e) <= f(e) - 1 per edge copy.
    Vertices are taken by decreasing degree, and each vertex's star
    orders in `itertools.permutations` order over its incident copies;
    the first assignment meeting every constraint is returned.

    Pruning cuts only subtrees without a solution, so that first
    assignment is unchanged.  A copy's cap at v is f(e) - 1 minus its
    position at the other endpoint (minus 0 while that endpoint is
    unplaced).  Copies with sorted caps c_(0) <= c_(1) <= ... fit into
    distinct positions k, k + 1, ... exactly when c_(j) >= k + j for
    every j.  A star order is built one position at a time, and a
    prefix is dropped when the copies not yet placed cannot fit behind
    it (so each copy placed is within its cap).  A completed order is
    dropped when some unplaced neighbour's copies no longer fit from
    position 0.
    """
    incident = copy_stars(b.n, origin)
    if max([b.n, *map(len, incident)]) > STAR_ORDER_DEPTH:
        raise ValueError(f"star-order search capped at {STAR_ORDER_DEPTH} root vertices "
                         f"and as many edge copies at a vertex")
    limit = [f(i) - 1 for i in range(len(origin))]
    order_pos = {}
    verts = sorted(range(b.n), key=lambda v: -len(incident[v]))

    def other(v, i):
        u, w = origin[i]
        return w if v == u else u

    def cap(v, i):
        o = other(v, i)
        return limit[i] - order_pos[o][i] if o in order_pos else limit[i]

    def fits(caps, start):
        return all(c >= start + j for j, c in enumerate(sorted(caps)))

    def star_orders(v):
        caps = {i: cap(v, i) for i in incident[v]}
        pos = {}

        def extend(rest, k):
            if not rest:
                yield dict(pos)
                return
            if not fits([caps[i] for i in rest], k):
                return
            for idx, i in enumerate(rest):
                pos[i] = k
                yield from extend(rest[:idx] + rest[idx + 1:], k + 1)
                del pos[i]

        return extend(incident[v], 0)

    def neighbours_fit(v):
        for w in {other(v, i) for i in incident[v]}:
            if w not in order_pos and not fits([cap(w, i) for i in incident[w]], 0):
                return False
        return True

    def place(k):
        if k == len(verts):
            return True
        v = verts[k]
        for pos in star_orders(v):
            order_pos[v] = pos
            if neighbours_fit(v) and place(k + 1):
                return True
            del order_pos[v]
        return False

    if not place(0):
        return None
    # arcs run toward earlier positions, so list each star from its last
    return orientation_from_clique_orders(len(origin), [
        sorted(pos, key=pos.get, reverse=True) for pos in order_pos.values()
    ])


# ---------------------------------------------------------------------------
# clique-order constructions

def orientation_from_clique_orders(n, clique_orders):
    """Union of transitive tournaments, one per clique order.

    Each order orients its clique from earlier entries toward later
    ones; conflicting orders on a shared pair yield a bidirected pair.
    """
    arcs = set()
    for order in clique_orders:
        for ai, a in enumerate(order):
            for bi in range(ai + 1, len(order)):
                arcs.add((a, order[bi]))
    return Digraph.from_arcs(n, arcs)
