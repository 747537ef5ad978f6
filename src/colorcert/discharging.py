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
from itertools import combinations

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

    Exhaustive up to MAXCUT_EXHAUSTIVE_VERTICES vertices, where ties go
    to the lexicographically least side-A indicator tuple with vertex 0
    on side A; single-vertex-move local search beyond, which still
    guarantees every vertex keeps at least half its degree across the
    cut.
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
    the minimum of (-cut, sq, mask) is the exhaustive objective with its
    tie-break.  The 2^(n-1) masks are walked in Gray-code order: step i
    flips vertex n-1-ctz(i), and the cut and squared-multiplicity sums
    change by the flipped vertex's neighbours on each side, counted per
    multiplicity class from neighbour bitmasks.
    """
    n = h.n
    bit = [1 << (n - 1 - v) for v in range(n)]
    by_mult = [{} for _ in range(n)]
    for u, v, m in h.edges:
        by_mult[u][m] = by_mult[u].get(m, 0) | bit[v]
        by_mult[v][m] = by_mult[v].get(m, 0) | bit[u]
    classes = [tuple(c.items()) for c in by_mult]
    full = (1 << n) - 1
    side = full  # every vertex on side A: nothing crosses
    cut = sq = 0
    best_cut, best_sq, best_side = 0, 0, side
    for i in range(1, 1 << (n - 1)):
        v = n - (i & -i).bit_length()
        same = side if side & bit[v] else full ^ side
        for m, mask in classes[v]:
            gain = (mask & same).bit_count() - (mask & ~same).bit_count()
            cut += m * gain
            sq += m * m * gain
        side ^= bit[v]
        if cut > best_cut or cut == best_cut and (
                sq < best_sq or sq == best_sq and side < best_side):
            best_cut, best_sq, best_side = cut, sq, side
    return best_side


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


def mad_exact(h, cap=14):
    """Maximum average degree over all nonempty vertex subsets."""
    if h.n > cap:
        raise ValueError(f"exact search capped at {cap} vertices")
    from fractions import Fraction

    best = Fraction(0)
    for size in range(1, h.n + 1):
        for vs in combinations(range(h.n), size):
            vset = set(vs)
            e = sum(m for u, v, m in h.edges if u in vset and v in vset)
            best = max(best, Fraction(2 * e, size))
    return best


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
