"""Degree-counting machinery over multigraphs.

A charge ledger starts every vertex at its degree and runs ten rounds
of transfers, indexed 2 through 11.  In round i, every vertex of degree
at most i is owed one unit from a higher-degree neighbor; the round is
realized by repeatedly peeling a donor of current low degree.  When no
donor exists the round stalls, and the stalled subgraph is itself the
valuable output: it satisfies a local degree condition strong enough to
yield a kernel certificate on its line graph.
"""

from dataclasses import dataclass

from .graphs import ListSizeFn, MultiGraph, edge_copies


@dataclass
class ChargeLedger:
    initial: dict  # vertex -> starting charge (its degree)
    rounds: list  # (round index, [(donor, recipient, 1), ...])
    final: dict  # vertex -> finishing charge

    def conserved(self):
        return sum(self.final.values()) == sum(self.initial.values())

    def settled(self):
        """Conserved, and every vertex of degree at most 11 ends at 12."""
        return self.conserved() and all(
            self.final[v] == 12 for v, d in self.initial.items() if d <= 11
        )

    def to_json(self):
        return {
            "initial": {str(v): c for v, c in sorted(self.initial.items())},
            "rounds": [
                {"round": i, "transfers": [list(t) for t in ts]}
                for i, ts in self.rounds
            ],
            "final": {str(v): c for v, c in sorted(self.final.items())},
            "conserved": self.conserved(),
        }


@dataclass
class BipartiteWitness:
    b: MultiGraph  # stalled subgraph
    parts: tuple  # (low-degree side, donor side) as sorted tuples
    round_index: int
    original_vertices: tuple  # host vertex behind each vertex of b

    def is_valid(self, h):
        """Both endpoints accounted: on every edge, some endpoint of
        minimum degree inside b has all of its h-incident edges in b."""
        degs_b = self.b.degrees()
        degs_h = h.degrees()
        back = self.original_vertices
        for u, v, _ in self.b.edges:
            x, y = (u, v) if degs_b[u] <= degs_b[v] else (v, u)
            candidates = [x] if degs_b[x] < degs_b[y] else [x, y]
            if not any(degs_b[z] == degs_h[back[z]] for z in candidates):
                return False
        return True

    def to_json(self):
        return {
            "n": self.b.n,
            "edges": [list(e) for e in self.b.edges],
            "parts": [list(self.parts[0]), list(self.parts[1])],
            "round": self.round_index,
            "original_vertices": list(self.original_vertices),
        }


MAXCUT_EXHAUSTIVE_VERTICES = 16


def maxcut_partition(h):
    """Best vertex bipartition under (max crossing edges, min crossing
    sum of squared multiplicities), lexicographically.

    Exact up to MAXCUT_EXHAUSTIVE_VERTICES vertices, where ties go to
    the lexicographically least side-A indicator tuple with vertex 0 on
    side A: a branch and bound places vertices in index order, side B
    first, and drops a partial bipartition once its cut plus the
    heavier side of each unplaced vertex plus the edges among unplaced
    vertices cannot beat the best (cut, squares) so far.  Beyond that,
    single-vertex-move local search, which still guarantees every
    vertex keeps at least half its degree across the cut.
    """
    if h.n == 0:
        return (), ()

    def objective(in_a):
        cut = 0
        sq = 0
        for u, v, m in h.edges:
            if in_a[u] != in_a[v]:
                cut += m
                sq += m * m
        return cut, sq

    if h.n <= MAXCUT_EXHAUSTIVE_VERTICES:
        side = _exhaustive_maxcut(h)
        in_a = [bool(side >> (h.n - 1 - v) & 1) for v in range(h.n)]
    else:
        in_a = [v % 2 == 0 for v in range(h.n)]
        improved = True
        while improved:
            improved = False
            cur = objective(in_a)
            for v in range(h.n):
                in_a[v] = not in_a[v]
                new = objective(in_a)
                if (-new[0], new[1]) < (-cur[0], cur[1]):
                    cur = new
                    improved = True
                else:
                    in_a[v] = not in_a[v]
    a = tuple(v for v in range(h.n) if in_a[v])
    b = tuple(v for v in range(h.n) if not in_a[v])
    return a, b


def _exhaustive_maxcut(h):
    """Side-A mask of the best bipartition with vertex 0 on side A.

    Vertex v is bit n-1-v, so vertex 0 is the most significant bit and
    numeric order on masks is lexicographic order on indicator tuples;
    the answer is the minimum of (-cut, sq, mask) over the 2^(n-1)
    masks.

    A depth-first branch and bound finds it.  Vertices 1..n-1 are
    placed in index order, side B before side A, so leaves are reached
    in increasing mask order.  The bound on the cut of every leaf below
    a node is the cut among placed vertices, plus max(w_A(u), w_B(u))
    for each unplaced u, where w_X(u) is u's edge weight to the placed
    vertices on side X, plus the weight of the edges among unplaced
    vertices.  A node is pruned when its bound is below the best cut,
    or equal to it while its crossing squares already reach the best
    squares: squares only grow as vertices are placed, and every leaf
    below comes after the incumbent in mask order, so it could at best
    tie the incumbent and lose the tie-break.  A leaf that survives is
    therefore strictly better in (cut, sq) and becomes the incumbent.
    """
    n = h.n
    later = [[] for _ in range(n)]  # (u, m) for each neighbour u > v
    inside = [0] * (n + 1)  # inside[v]: edge weight among vertices v..n-1
    for u, v, m in h.edges:
        later[u].append((v, m))
        inside[u] += m
    for v in range(n - 2, -1, -1):
        inside[v] += inside[v + 1]
    best = (-1, 0, 0)  # (cut, sq, mask) of the incumbent
    zero = [0] * n
    root = _place((0, 0, 0, (zero, zero), (zero, zero)), 0, 1, later[0])
    stack = [(1, 1 << (n - 1), root)]  # (next vertex, mask so far, state)
    while stack:
        v, mask, state = stack.pop()
        cut, sq, free = state[:3]
        bound = cut + free + inside[v]
        if bound < best[0] or bound == best[0] and sq >= best[1]:
            continue
        if v == n:
            best = cut, sq, mask
            continue
        for s in (1, 0):  # side B is popped, and searched, first
            stack.append((v + 1, mask | s << (n - 1 - v), _place(state, v, s, later[v])))
    return best[2]


def _place(state, v, s, later_v):
    """The search state after vertex v goes to side s (1 is side A).

    A state is (cut, sq, free, w, q): the cut weight and the crossing
    squared multiplicities among placed vertices; the sum of
    max(w[0][u], w[1][u]) over unplaced vertices u; and w[t][u] and
    q[t][u], the edge weight and the squared multiplicities from u to
    the placed vertices on side t.  Only the lists of side s are
    copied; later_v holds (u, m) for each neighbour u > v.
    """
    cut, sq, free, w, q = state
    ws, qs, wo, qo = list(w[s]), list(q[s]), w[1 - s], q[1 - s]
    free -= max(ws[v], wo[v])
    for u, m in later_v:
        old = max(ws[u], wo[u])
        ws[u] += m
        qs[u] += m * m
        free += max(ws[u], wo[u]) - old
    if s:
        return cut + wo[v], sq + qo[v], free, (wo, ws), (qo, qs)
    return cut + wo[v], sq + qo[v], free, (ws, wo), (qs, qo)


def degeneracy(h):
    """Exact degeneracy with a min-degree elimination order.

    Multiplicities count toward degrees.  Returns (k, order).
    """
    remaining = set(range(h.n))
    mult = {}
    for u, v, m in h.edges:
        mult.setdefault(u, {})[v] = m
        mult.setdefault(v, {})[u] = m
    deg = {v: sum(mult.get(v, {}).values()) for v in range(h.n)}
    order = []
    k = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        order.append(v)
        remaining.discard(v)
        for w, m in mult.get(v, {}).items():
            if w in remaining:
                deg[w] -= m
    return k, order


def peel_witness(h, i):
    """Run one round of transfers toward the degree-at-most-i vertices.

    B starts as the subgraph holding every vertex of degree <= i plus
    all edges incident to those vertices (with their other endpoints).
    Repeatedly pick a donor — a vertex outside the low set with current
    B-degree < i, minimum degree first, ties by id — transfer one unit
    to each of its current B-neighbors, then delete the donor and those
    neighbors.  When the low side still has vertices but no donor
    exists, the current B is returned as a witness.

    Returns ("done", transfers) or ("witness", BipartiteWitness).
    """
    if not 2 <= i <= 11:
        raise ValueError("round index out of range")
    degs = h.degrees()
    low = {v for v in range(h.n) if degs[v] <= i and degs[v] > 0}
    b_edges = {
        (u, v): m for u, v, m in h.edges if u in low or v in low
    }
    b_verts = set(low)
    for u, v in b_edges:
        b_verts.add(u)
        b_verts.add(v)
    transfers = []

    def bdeg(v):
        return sum(m for (x, y), m in b_edges.items() if v in (x, y))

    while b_verts & low:
        donors = sorted(
            (v for v in b_verts - low if bdeg(v) < i),
            key=lambda v: (bdeg(v), v),
        )
        if not donors:
            verts = sorted(b_verts)
            index = {v: j for j, v in enumerate(verts)}
            sub = MultiGraph.from_edges(
                len(verts), [(index[u], index[v], m) for (u, v), m in b_edges.items()]
            )
            parts = (
                tuple(index[v] for v in verts if v in low),
                tuple(index[v] for v in verts if v not in low),
            )
            return "witness", BipartiteWitness(sub, parts, i, tuple(verts))
        donor = donors[0]
        nbrs = {x if y == donor else y for (x, y) in b_edges if donor in (x, y)}
        for w in sorted(nbrs):
            transfers.append((donor, w, 1))
        gone = nbrs | {donor}
        b_edges = {
            (u, v): m for (u, v), m in b_edges.items() if u not in gone and v not in gone
        }
        b_verts -= gone
        low -= gone
        b_verts = {v for v in b_verts if v in low or bdeg(v) > 0}
    return "done", transfers


def discharge(h):
    """Ten transfer rounds; a ledger if they all complete, else the
    witness from the first stalled round."""
    degs = h.degrees()
    initial = {v: degs[v] for v in range(h.n)}
    charge = dict(initial)
    rounds = []
    for i in range(2, 12):
        kind, payload = peel_witness(h, i)
        if kind == "witness":
            return payload
        for donor, recipient, amount in payload:
            charge[donor] -= amount
            charge[recipient] += amount
        rounds.append((i, payload))
    return ChargeLedger(initial, rounds, charge)


def witness_to_kp(h, w, delta):
    """Kernel certificate on the line graph of a stalled subgraph.

    Each edge xy of w.b gets the budget f(xy) = d_LB(xy) - 1 + delta -
    d_LH(xy), where d_LB and d_LH are its line-graph degrees inside the
    witness and inside h.  The witness invariant plus delta > max
    degree of h force f(xy) >= max of the endpoint degrees in w.b, so
    the standard bipartite orientation certifies the budget.
    """
    if max(h.degrees(), default=0) >= delta:
        raise ValueError("delta must exceed the maximum degree of the host")
    if not w.is_valid(h):
        raise ValueError("invalid witness: an edge has no fully-covered endpoint")
    from .kernel import KPCertificate, galvin_orientation

    b = w.b
    back = w.original_vertices
    degs_b = b.degrees()
    degs_h = h.degrees()
    base = galvin_orientation(b)
    mult_h = {
        tuple(sorted((u, v))): h.multiplicity(back[u], back[v]) for u, v, _ in b.edges
    }
    mult_b = {tuple(sorted((u, v))): m for u, v, m in b.edges}
    fvals = []
    for u, v in edge_copies(b):
        key = tuple(sorted((u, v)))
        d_lb = degs_b[u] + degs_b[v] - mult_b[key] - 1
        d_lh = degs_h[back[u]] + degs_h[back[v]] - mult_h[key] - 1
        fv = d_lb - 1 + delta - d_lh
        if fv < max(degs_b[u], degs_b[v]):
            raise ValueError(
                f"budget shortfall on edge {back[u]}-{back[v]}: {fv} < "
                f"max({degs_b[u]}, {degs_b[v]})"
            )
        fvals.append(fv)
    f = ListSizeFn(tuple(fvals))
    cert = KPCertificate(base.graph, f, base.digraph, base.supergraph_edges, root=b)
    if not cert.check():
        raise RuntimeError("orientation failed verification")
    return cert
