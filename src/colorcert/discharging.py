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

from .graphs import ListSizeFn, MultiGraph, _bits, edge_copies
from .kernel import KPCertificate, galvin_orientation


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

    Exact up to MAXCUT_EXHAUSTIVE_VERTICES vertices, by the branch and
    bound of `_place`, where ties go to the lexicographically least
    side-A indicator tuple with vertex 0 on side A.  Beyond that,
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
    masks, which `_place` finds.
    """
    n = h.n
    later = [[] for _ in range(n)]  # (u, m) for each neighbour u > v
    inside = [0] * (n + 1)  # inside[v]: edge weight among vertices v..n-1
    for u, v, m in h.edges:
        later[u].append((v, m))
        inside[u] += m
    for v in range(n - 2, -1, -1):
        inside[v] += inside[v + 1]
    best = [-1, 0, 0]  # (cut, sq, mask) of the incumbent
    _place((later, inside, [[0] * n, [0] * n], [[0] * n, [0] * n], best), 0, 1, 0, 0, 0, 0)
    return best[2]


def _place(search, v, s, mask, cut, sq, free):
    """Put vertex v on side s (1 is side A), search below, take it off.

    `search` is (later, inside, w, q, best): later[v] holds (u, m) for
    each neighbour u > v; inside[v] is the edge weight among vertices
    v..n-1; w[t][u] and q[t][u] are the edge weight and the squared
    multiplicities from u to the placed vertices on side t, updated in
    place; best is the incumbent [cut, sq, mask].  mask, cut and sq
    are those of the placed vertices before v, and free is the sum of
    max(w[0][u], w[1][u]) over the unplaced vertices u.

    A depth-first branch and bound: vertices are placed in index order,
    side B before side A, so leaves are reached in increasing mask
    order.  The bound on the cut of every leaf below a node is the cut
    among placed vertices, plus max(w_A(u), w_B(u)) for each unplaced
    u, plus the weight of the edges among unplaced vertices.  A node is
    pruned when its bound is below the best cut, or equal to it while
    its crossing squares already reach the best squares: squares only
    grow as vertices are placed, and every leaf below comes after the
    incumbent in mask order, so it could at best tie the incumbent and
    lose the tie-break.  A leaf that survives is therefore strictly
    better in (cut, sq) and becomes the incumbent.
    """
    later, inside, w, q, best = search
    ws, qs, wo = w[s], q[s], w[1 - s]
    mask |= s << (len(wo) - 1 - v)
    cut += wo[v]
    sq += q[1 - s][v]
    free -= max(ws[v], wo[v])
    for u, m in later[v]:
        old = max(ws[u], wo[u])
        ws[u] += m
        qs[u] += m * m
        free += max(ws[u], wo[u]) - old
    bound = cut + free + inside[v + 1]
    if bound > best[0] or bound == best[0] and sq < best[1]:
        if v + 1 == len(wo):
            best[:] = cut, sq, mask
        else:
            _place(search, v + 1, 0, mask, cut, sq, free)
            _place(search, v + 1, 1, mask, cut, sq, free)
    for u, m in later[v]:
        ws[u] -= m
        qs[u] -= m * m


def degeneracy(h):
    """Exact degeneracy with a min-degree elimination order.

    Multiplicities count toward degrees.  Returns (k, order).
    """
    rest = (1 << h.n) - 1
    adj = h.adjacency_masks()
    deg = h.degrees()
    order = []
    k = 0
    while rest:
        v = min(_bits(rest), key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        order.append(v)
        rest ^= 1 << v
        for w in _bits(adj[v] & rest):
            deg[w] -= h.multiplicity(v, w)
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
    # B is kept as two masks: its vertices (alive) and its low side.
    # Its edges are those of h inside alive with an end on the low side,
    # so the B-neighbours of v are adj[v] & alive when v is low and
    # adj[v] & low otherwise.
    # bdeg[v] is the B-degree of a vertex v of B off the low side: the
    # multiplicities of its edges to the low side.  A step takes those of
    # the removed low vertices off their other neighbours, and a vertex
    # whose B-degree falls to 0 leaves B.
    adj = h.adjacency_masks()
    degs = h.degrees()
    low = sum(1 << v for v in range(h.n) if 0 < degs[v] <= i)
    alive = low
    for v in _bits(low):
        alive |= adj[v]
    bdeg = [0] * h.n
    for v in _bits(alive & ~low):
        bdeg[v] = sum(h.multiplicity(v, w) for w in _bits(adj[v] & low))
    transfers = []
    while low:
        donors = [(bdeg[v], v) for v in _bits(alive & ~low) if bdeg[v] < i]
        if not donors:
            verts = list(_bits(alive))
            index = {v: j for j, v in enumerate(verts)}
            sub = MultiGraph.from_edges(len(verts), [
                (index[u], index[v], m) for u, v, m in h.edges
                if alive >> u & alive >> v & 1 and (low >> u | low >> v) & 1])
            parts = (
                tuple(index[v] for v in verts if low >> v & 1),
                tuple(index[v] for v in verts if not low >> v & 1),
            )
            return "witness", BipartiteWitness(sub, parts, i, tuple(verts))
        donor = min(donors)[1]
        nbrs = adj[donor] & low
        transfers.extend((donor, w, 1) for w in _bits(nbrs))
        alive &= ~(nbrs | 1 << donor)
        low &= ~nbrs
        for w in _bits(nbrs):
            for v in _bits(adj[w] & alive & ~low):
                bdeg[v] -= h.multiplicity(v, w)
                if not bdeg[v]:
                    alive ^= 1 << v
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

    `galvin_orientation` checks its certificate once, under the budget
    max(d_B(x), d_B(y)); this only raises that budget, and
    kernel-perfection does not read it, so there is no second check.
    """
    if max(h.degrees(), default=0) >= delta:
        raise ValueError("delta must exceed the maximum degree of the host")
    if not w.is_valid(h):
        raise ValueError("invalid witness: an edge has no fully-covered endpoint")
    b = w.b
    back = w.original_vertices
    degs_b = b.degrees()
    degs_h = h.degrees()
    base = galvin_orientation(b)
    fvals = []
    for u, v in edge_copies(b):
        d_lb = degs_b[u] + degs_b[v] - b.multiplicity(u, v) - 1
        d_lh = degs_h[back[u]] + degs_h[back[v]] - h.multiplicity(back[u], back[v]) - 1
        fv = d_lb - 1 + delta - d_lh
        if fv < max(degs_b[u], degs_b[v]):
            raise ValueError(
                f"budget shortfall on edge {back[u]}-{back[v]}: {fv} < "
                f"max({degs_b[u]}, {degs_b[v]})"
            )
        fvals.append(fv)
    return KPCertificate(base.graph, ListSizeFn(tuple(fvals)), base.digraph, root=b)
