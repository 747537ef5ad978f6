"""Kernels, kernel-perfect orientations, and certificates built from them.

A kernel of a digraph is an independent set (in the underlying support;
a bidirected pair counts as an edge) such that every vertex outside it
has an out-neighbor inside it.  A digraph is kernel-perfect when every
induced subdigraph has a kernel.  Kernel-perfect orientations with
out-degrees below a list-size budget certify both choosability and the
online game version of it.
"""

from itertools import combinations

from .graphs import Digraph, ListSizeFn, copy_stars, edge_copies, line_graph


def find_kernel(d, s=None):
    """Kernel of the subdigraph induced on s (default: all vertices).

    Candidates are tried by increasing size, lexicographically within a
    size; the first kernel found is returned, else None.
    """
    if s is None:
        s = range(d.n)
    verts = sorted(set(s))
    sset = set(verts)
    support_adj = {v: set() for v in verts}
    out_adj = {v: set() for v in verts}
    for u, v in d.arcs:
        if u in sset and v in sset:
            support_adj[u].add(v)
            support_adj[v].add(u)
            out_adj[u].add(v)
    for size in range(0, len(verts) + 1):
        for cand in combinations(verts, size):
            kset = set(cand)
            if any(support_adj[u] & kset for u in cand):
                continue  # not independent
            if all(out_adj[v] & kset for v in verts if v not in kset):
                return kset
    return None


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
    support = [0] * n
    into = [0] * n
    for u, v in d.arcs:
        support[u] |= 1 << v
        support[v] |= 1 << u
        into[v] |= 1 << u
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
    failing = [s for s in range(1, 1 << n) if not has_kernel[s]]
    if not failing:
        return True, None
    members = [[v for v in range(n) if s >> v & 1] for s in failing]
    return False, set(min(members, key=lambda m: (len(m), m)))


# ---------------------------------------------------------------------------
# the line-graph characterization

def kp_line_characterization(d, root, origin=None):
    """Decide kernel-perfection for an orientation of a line graph.

    The orientation must cover the line graph of `root` exactly (every
    edge gets one or both arc directions); `origin` may relabel the
    line-graph vertices by giving the root edge of each.

    For a bipartite root B, L(B) and all its induced subgraphs are
    perfect (König).  By Boros and Gurvich ("Perfect graphs are kernel
    solvable", 1996) an orientation of a perfect graph, bidirected pairs
    allowed, is then kernel-perfect iff the one-way arcs inside every
    clique are acyclic; a one-way cycle in a clique leaves that clique
    without a kernel.  B has no triangle, so the maximal cliques of L(B)
    are its stars, and the test runs star by star.  Any other root gets
    the exhaustive `is_kernel_perfect`, which raises above its cap.
    """
    lg, origin = line_graph(root, origin)
    if d.support().edges != lg.edges or d.n != lg.n:
        raise ValueError("digraph support is not the line graph of the root")
    if bipartition(root) is None:
        return is_kernel_perfect(d)[0]
    one_way = [0] * d.n
    for u, v in d.strict_arcs():
        one_way[u] |= 1 << v
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

class KPCertificate:
    """A kernel-perfect orientation with out-degrees below a budget.

    `digraph` may contain bidirected pairs, which model doubled edges
    of a supergraph of `graph`; `supergraph_edges` records the doubled
    pairs.  `root` (optional) is a multigraph whose line graph is the
    underlying graph; `check()` then goes through
    `kp_line_characterization`, which tests stars when the root is
    bipartite and runs the exhaustive check otherwise.  `to_json` names
    the route `check()` takes.
    """

    def __init__(self, graph, f, digraph, supergraph_edges=(), root=None, origin=None):
        self.graph = graph
        self.f = f
        self.digraph = digraph
        self.supergraph_edges = tuple(sorted(tuple(sorted(e)) for e in supergraph_edges))
        self.root = root
        self.origin = tuple(origin) if origin is not None else None

    def check(self):
        """Re-verify all claims: support, out-degree bound, kernel-perfection."""
        if self.digraph.support().edges != self.graph.edges:
            return False
        doubled = {
            tuple(sorted((u, v)))
            for u, v in self.digraph.arcs
            if self.digraph.is_bidirected(u, v)
        }
        if doubled != set(self.supergraph_edges):
            return False
        outs = self.digraph.out_degrees()
        if any(outs[v] > self.f(v) - 1 for v in range(self.graph.n)):
            return False
        if self.root is not None:
            return kp_line_characterization(self.digraph, self.root, origin=self.origin)
        ok, _ = is_kernel_perfect(self.digraph)
        return ok

    def to_json(self):
        from .graphs import digraph_to_json

        doc = {
            "n": self.graph.n,
            "edges": self.graph.edge_list(),
            "f": list(self.f.values),
            "orientation": digraph_to_json(self.digraph),
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
        from .graphs import MultiGraph, SimpleGraph, digraph_from_json

        g = SimpleGraph.from_edges(doc["n"], doc["edges"])
        f = ListSizeFn(tuple(doc["f"]))
        d = digraph_from_json(doc["orientation"])
        root = None
        if "root" in doc:
            root = MultiGraph.from_edges(doc["root"]["n"], doc["root"]["edges"])
        origin = None
        if "origin" in doc:
            origin = [tuple(e) for e in doc["origin"]]
        return KPCertificate(
            g, f, d, [tuple(e) for e in doc.get("doubled", [])],
            root=root, origin=origin,
        )


F_KP_VERTICES = 8


def is_f_KP(g, f, allow_doubling=False):
    """Search for a kernel-perfect (super)orientation within budget f.

    Each edge is tried one way, the other way, and (when doubling is
    allowed) both ways at once, in a fixed deterministic order, pruning
    on the out-degree bound d+(v) <= f(v) - 1.  Returns the first
    certificate found, else None.
    """
    if g.n > F_KP_VERTICES:
        raise ValueError(f"search capped at {F_KP_VERTICES} vertices")
    edges = g.edge_list()
    limit = [f(v) - 1 for v in range(g.n)]
    if any(x < 0 for x in limit):
        return None
    outs = [0] * g.n
    chosen = []

    def place(k):
        if k == len(edges):
            d = Digraph.from_arcs(g.n, [a for arcs in chosen for a in arcs])
            ok, _ = is_kernel_perfect(d)
            return ok
        u, v = edges[k]
        options = [((u, v),), ((v, u),)]
        if allow_doubling:
            options.append(((u, v), (v, u)))
        for arcs in options:
            feasible = True
            for a, _ in arcs:
                outs[a] += 1
                if outs[a] > limit[a]:
                    feasible = False
            if feasible:
                chosen.append(arcs)
                if place(k + 1):
                    return True
                chosen.pop()
            for a, _ in arcs:
                outs[a] -= 1
        return False

    if not place(0):
        return None
    arcs = [a for group in chosen for a in group]
    d = Digraph.from_arcs(g.n, arcs)
    return KPCertificate(g, f, d, _doubled_pairs(d))


# ---------------------------------------------------------------------------
# constructions for line graphs of bipartite multigraphs

def bipartition(b):
    """Two-color the support of a multigraph; None if an odd cycle exists."""
    color = [None] * b.n
    for start in range(b.n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for a, c, _ in b.edges:
                if v not in (a, c):
                    continue
                w = c if v == a else a
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    x = [v for v in range(b.n) if color[v] == 0]
    y = [v for v in range(b.n) if color[v] == 1]
    return x, y


def bipartite_edge_coloring(b):
    """Proper edge coloring of a bipartite multigraph with Delta colors.

    Standard augmenting-path coloring: insert edge copies one at a
    time; when no color is free at both endpoints, swap colors along an
    alternating chain.  Returns a list of colors (1-based), one per
    edge copy in line-graph vertex order.
    """
    copies = edge_copies(b)
    delta = max(b.degrees()) if b.edges else 0
    used = [dict() for _ in range(b.n)]  # vertex -> color -> copy index
    colors = [None] * len(copies)

    def assign(idx, col):
        u, v = copies[idx]
        colors[idx] = col
        used[u][col] = idx
        used[v][col] = idx

    def unassign(idx):
        u, v = copies[idx]
        col = colors[idx]
        del used[u][col]
        del used[v][col]
        colors[idx] = None

    for idx, (u, v) in enumerate(copies):
        free_u = next(c for c in range(1, delta + 1) if c not in used[u])
        free_v = next(c for c in range(1, delta + 1) if c not in used[v])
        if free_u == free_v:
            assign(idx, free_u)
            continue
        # swap colors free_u/free_v along the alternating chain from v;
        # in a bipartite graph the chain cannot reach u, so free_u
        # becomes free at v as well
        a, bcol = free_u, free_v
        chain = []
        w, col = v, a
        while col in used[w]:
            j = used[w][col]
            chain.append(j)
            p, q = copies[j]
            w = q if w == p else p
            col = bcol if col == a else a
        swapped = [bcol if colors[j] == a else a for j in chain]
        for j in chain:
            unassign(j)
        for j, new in zip(chain, swapped):
            assign(j, new)
        assign(idx, a)
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
    that can still meet every rank-sum bound).  Either orientation is
    re-checked through the line-graph characterization, which needs only
    its star test here because the root is bipartite.
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
    outs = d.out_degrees()
    if all(outs[i] <= f(i) - 1 for i in range(lg.n)):
        cert = KPCertificate(lg, f, d, _doubled_pairs(d), root=b)
        if cert.check():
            return cert

    d = _search_star_orders(b, origin, f)
    if d is None:
        raise RuntimeError("no orientation met the degree bound")
    cert = KPCertificate(lg, f, d, _doubled_pairs(d), root=b)
    if not cert.check():
        raise RuntimeError("star-order orientation failed its certificate check")
    return cert


def _doubled_pairs(d):
    return [(u, v) for u, v in d.arcs if u < v and (v, u) in d.arcs]


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


def mu3_kp_certificates():
    """Certificates for the built-in clique-order catalog entries.

    For each entry: build the line graph, orient it from the stored
    clique orders, check the expected degree and out-degree rows, check
    kernel-perfection via the characterization, and check the budget
    f(v) = d(v) on emphasized vertices and d(v) - 1 otherwise.  Any
    mismatch raises.
    """
    from .catalog import clique_order_catalog

    certs = []
    for entry in clique_order_catalog():
        lg, _ = line_graph(entry.root, entry.edge_origin)
        d = orientation_from_clique_orders(lg.n, entry.clique_orders)
        degs = tuple(lg.degrees())
        if degs != entry.expected_degrees:
            raise AssertionError(f"{entry.name}: degree row {degs} != {entry.expected_degrees}")
        outs = tuple(d.out_degrees())
        if entry.expected_outdegrees is not None and outs != entry.expected_outdegrees:
            raise AssertionError(f"{entry.name}: out-degree row {outs} != {entry.expected_outdegrees}")
        if not kp_line_characterization(d, entry.root, origin=entry.edge_origin):
            raise AssertionError(f"{entry.name}: orientation is not kernel-perfect")
        f = ListSizeFn(tuple(
            degs[v] if v in entry.emphasized else degs[v] - 1 for v in range(lg.n)
        ))
        if any(outs[v] > f(v) - 1 for v in range(lg.n)):
            raise AssertionError(f"{entry.name}: out-degree exceeds budget")
        certs.append(KPCertificate(lg, f, d, _doubled_pairs(d), root=entry.root,
                                   origin=entry.edge_origin))
    return certs
