"""Orientation certificates via Eulerian sub-digraph counting.

The central fact used throughout: for a graph on vertices 0..n-1 with a
fixed vertex order, the polynomial prod_{ij in E, i<j} (x_i - x_j) has,
for every orientation D with out-degree vector k, a coefficient on
prod x_i^{k_i} whose absolute value equals |EE(D) - EO(D)|, where EE/EO
count spanning sub-digraphs with in-degree equal to out-degree at every
vertex, split by parity of the arc count (the empty sub-digraph is
even).  A graph admits a proper coloring from any lists of sizes f when
some coefficient with exponents k_i <= f(i) - 1 is nonzero; the
orientation realizing that exponent vector is the portable certificate.
"""

from fractions import Fraction
from itertools import combinations, product

from .graphs import Digraph, SimpleGraph, complete_graph, complete_multipartite_2t, join


def eulerian_counts(d):
    """Return (even, odd) counts of spanning Eulerian sub-digraphs.

    A sub-digraph qualifies when every vertex has equal in- and
    out-degree within it; parity is the parity of its arc count.  Exact
    integers; the empty sub-digraph counts as even.
    """
    arcs = sorted(d.arcs)
    # remaining[v] = number of not-yet-decided arcs incident to v;
    # states map imbalance vectors (out - in per vertex) to
    # (even_count, odd_count) weights.
    remaining = [0] * d.n
    for u, v in arcs:
        remaining[u] += 1
        remaining[v] += 1
    states = {(0,) * d.n: (1, 0)}
    for u, v in arcs:
        remaining[u] -= 1
        remaining[v] -= 1
        nxt = {}
        for imb, (ev, od) in states.items():
            # skip the arc
            if abs(imb[u]) <= remaining[u] and abs(imb[v]) <= remaining[v]:
                e0, o0 = nxt.get(imb, (0, 0))
                nxt[imb] = (e0 + ev, o0 + od)
            # take the arc: out(u) += 1, in(v) += 1
            lst = list(imb)
            lst[u] += 1
            lst[v] -= 1
            if abs(lst[u]) <= remaining[u] and abs(lst[v]) <= remaining[v]:
                key = tuple(lst)
                e0, o0 = nxt.get(key, (0, 0))
                nxt[key] = (e0 + od, o0 + ev)
        states = nxt
    return states.get((0,) * d.n, (0, 0))


def verify_catalog_entry(entry):
    """Recompute an entry's Eulerian counts; return (ok, got_ee, got_eo)."""
    ee, eo = eulerian_counts(entry.digraph)
    return (ee, eo) == (entry.ee, entry.eo), ee, eo


# ---------------------------------------------------------------------------
# graph polynomial coefficients

class CoefficientQuery:
    """A single coefficient request: graph + exponent vector."""

    def __init__(self, graph, exponents):
        if len(exponents) != graph.n:
            raise ValueError("exponent vector length mismatch")
        if sum(exponents) != len(graph.edges):
            raise ValueError("exponents must sum to the edge count")
        self.graph = graph
        self.exponents = tuple(exponents)


def poly_coefficient_expand(g, exponents, caps=None):
    """Coefficient of prod x_i^{e_i} in prod_{ij in E, i<j} (x_i - x_j).

    Expands edge by edge, keeping only monomials whose per-vertex
    exponent stays within `caps` (defaults to the target exponents).
    Exact integer result under the fixed vertex order 0..n-1.
    """
    exponents = tuple(exponents)
    if caps is None:
        caps = exponents
    monos = {(0,) * g.n: 1}
    for i, j in g.edge_list():
        nxt = {}
        for mono, coef in monos.items():
            if mono[i] < caps[i]:
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                nxt[key] = nxt.get(key, 0) + coef
            if mono[j] < caps[j]:
                key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                nxt[key] = nxt.get(key, 0) - coef
        monos = nxt
    return monos.get(exponents, 0)


def poly_coefficient_schauz(g, exponents):
    """Same coefficient via evaluation over small integer grids.

    Uses the interpolation identity: with C_i = {0, ..., e_i}, the
    coefficient equals sum over c in C_1 x ... x C_n of
    g(c) / prod_i prod_{d in C_i, d != c_i} (c_i - d).  Exact rationals
    throughout; the result is an integer.
    """
    exponents = tuple(exponents)
    edges = g.edge_list()
    grids = [range(e + 1) for e in exponents]
    total = Fraction(0)
    for c in product(*grids):
        val = 1
        for i, j in edges:
            diff = c[i] - c[j]
            if diff == 0:
                val = 0
                break
            val *= diff
        if val == 0:
            continue
        denom = 1
        for i, ci in enumerate(c):
            for dv in grids[i]:
                if dv != ci:
                    denom *= ci - dv
        total += Fraction(val, denom)
    assert total.denominator == 1
    return int(total)


def _capped_coefficients(g, caps):
    """All nonzero coefficients with exponents bounded by caps."""
    m = len(g.edges)
    monos = {(0,) * g.n: 1}
    for i, j in g.edge_list():
        nxt = {}
        for mono, coef in monos.items():
            if mono[i] < caps[i]:
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                c = nxt.get(key, 0) + coef
                if c:
                    nxt[key] = c
                elif key in nxt:
                    del nxt[key]
            if mono[j] < caps[j]:
                key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                c = nxt.get(key, 0) - coef
                if c:
                    nxt[key] = c
                elif key in nxt:
                    del nxt[key]
        monos = nxt
    return {k: v for k, v in monos.items() if sum(k) == m and v}


def orientation_with_outdegrees(g, target):
    """Lexicographically first orientation realizing an out-degree vector.

    Edges are taken in sorted order; at each edge the lower-endpoint
    direction is tried first.  Returns a Digraph or None.
    """
    edges = g.edge_list()
    need = list(target)
    suffix_inc = [[0] * g.n]
    for i, j in reversed(edges):
        row = list(suffix_inc[0])
        row[i] += 1
        row[j] += 1
        suffix_inc.insert(0, row)

    choice = [None] * len(edges)

    def place(k):
        if k == len(edges):
            return all(x == 0 for x in need)
        if any(need[v] > suffix_inc[k][v] for v in range(g.n)):
            return False
        i, j = edges[k]
        for tail, head in ((i, j), (j, i)):
            if need[tail] > 0:
                need[tail] -= 1
                choice[k] = (tail, head)
                if place(k + 1):
                    return True
                need[tail] += 1
        return False

    if not place(0):
        return None
    return Digraph.from_arcs(g.n, choice)


class ATCertificate:
    """A verified orientation witness for list-colorability bounds.

    Holds the graph, the list-size budget it certifies against, the
    witnessing orientation, and its Eulerian counts.
    """

    def __init__(self, graph, f, digraph, ee, eo):
        self.graph = graph
        self.f = f
        self.digraph = digraph
        self.ee = ee
        self.eo = eo

    def check(self):
        """Re-verify every claim from scratch."""
        if self.digraph.support().edges != self.graph.edges:
            return False
        outs = self.digraph.out_degrees()
        if any(outs[v] >= self.f(v) for v in range(self.graph.n)):
            return False
        ee, eo = eulerian_counts(self.digraph)
        return (ee, eo) == (self.ee, self.eo) and ee != eo

    def to_json(self):
        from .graphs import digraph_to_json

        return {
            "n": self.graph.n,
            "edges": self.graph.edge_list(),
            "f": list(self.f.values),
            "orientation": digraph_to_json(self.digraph),
            "ee": self.ee,
            "eo": self.eo,
        }

    @staticmethod
    def from_json(doc):
        from .graphs import ListSizeFn, digraph_from_json

        g = SimpleGraph.from_edges(doc["n"], doc["edges"])
        f = ListSizeFn(tuple(doc["f"]))
        d = digraph_from_json(doc["orientation"])
        return ATCertificate(g, f, d, doc["ee"], doc["eo"])


def is_f_AT(g, f):
    """Decide whether g has an orientation certificate within budget f.

    True iff some coefficient with exponents e_i <= f(i) - 1 is nonzero.
    Returns (answer, certificate-or-None); the certificate uses the
    lexicographically least qualifying exponent vector and the
    lexicographically first orientation realizing it.
    """
    if sum(f(v) - 1 for v in range(g.n)) < len(g.edges):
        return False, None
    caps = tuple(f(v) - 1 for v in range(g.n))
    coeffs = _capped_coefficients(g, caps)
    if not coeffs:
        return False, None
    target = min(coeffs)
    d = orientation_with_outdegrees(g, target)
    if d is None:
        raise RuntimeError(f"no orientation has out-degrees {target}")
    ee, eo = eulerian_counts(d)
    if abs(ee - eo) != abs(coeffs[target]):
        raise RuntimeError(
            f"|EE - EO| = {abs(ee - eo)} differs from the coefficient "
            f"{coeffs[target]} at {target}")
    return True, ATCertificate(g, f, d, ee, eo)


def coefficient_orientation_identity(g, d):
    """Check |coefficient at the out-degree vector| == |EE - EO| for d."""
    outs = tuple(d.out_degrees())
    coef = poly_coefficient_expand(g, outs)
    ee, eo = eulerian_counts(d)
    return abs(coef) == abs(ee - eo), coef, ee, eo


def enumerate_orientation_check(g, f):
    """Independent oracle: try every orientation directly (small n only).

    True iff some orientation has out-degrees below f everywhere and
    unequal Eulerian parities.
    """
    edges = g.edge_list()
    for bits in product((0, 1), repeat=len(edges)):
        arcs = [(e[b], e[1 - b]) for e, b in zip(edges, bits)]
        d = Digraph.from_arcs(g.n, arcs)
        outs = d.out_degrees()
        if any(outs[v] >= f(v) for v in range(g.n)):
            continue
        ee, eo = eulerian_counts(d)
        if ee != eo:
            return True
    return False


# ---------------------------------------------------------------------------
# constructions for joins with cliques

def k2t_join_certificate(s, t):
    """Certificate for K_s joined with the complete multipartite 2*t graph.

    Verifies that the join admits an orientation certificate for the
    constant budget f = s + t.  Returns (ok, certificate, graph, f).
    """
    from .graphs import ListSizeFn

    g = join(complete_graph(s), complete_multipartite_2t(t))
    f = ListSizeFn.constant(g.n, s + t)
    ok, cert = is_f_AT(g, f)
    return ok, cert, g, f


def complement_bipartite_at(g, clique, rest):
    """Budget check for graphs whose non-clique part has small cover.

    Given a split of the vertices into a clique A and a set B whose
    complement inside g admits a perfect matching from B into A (so
    that B's vertices can be paired with non-neighbors in A), the graph
    embeds into join(K_{|A| - |B|}, K_{2*|B|}) and inherits its
    certificate.  Returns (ok, matching, embedding) where matching maps
    each vertex of B to its non-neighbor in A, or (False, None, None).
    """
    a = sorted(clique)
    b = sorted(rest)
    if set(a) | set(b) != set(range(g.n)) or set(a) & set(b):
        raise ValueError("clique/rest must partition the vertex set")
    if not g.is_clique(a):
        return False, None, None
    if len(b) > len(a):
        return False, None, None
    # Hall matching in the complement bipartite graph between B and A.
    match = _bipartite_matching(
        b, a, lambda x, y: not g.has_edge(x, y) and x != y
    )
    if match is None:
        return False, None, None
    # embedding: matched pairs (b_i, a_i) -> the i-th part of K_{2*|B|},
    # leftover clique vertices -> the K_{|A|-|B|} side.
    t = len(b)
    s = len(a) - t
    leftover = [x for x in a if x not in set(match.values())]
    embed = {}
    for i, x in enumerate(leftover):
        embed[x] = i
    for i, x in enumerate(b):
        embed[match[x]] = s + 2 * i
        embed[x] = s + 2 * i + 1
    host = join(complete_graph(s), complete_multipartite_2t(t))
    for u, v in g.edge_list():
        if not host.has_edge(embed[u], embed[v]):
            return False, None, None
    return True, dict(match), embed


def _bipartite_matching(left, right, adjacent):
    """Maximum matching left->right; returns dict or None if not perfect."""
    match_r = {}

    def augment(x, seen):
        for y in right:
            if y in seen or not adjacent(x, y):
                continue
            seen.add(y)
            if y not in match_r or augment(match_r[y], seen):
                match_r[y] = x
                return True
        return False

    for x in left:
        if not augment(x, set()):
            return None
    return {x: y for y, x in match_r.items()}
