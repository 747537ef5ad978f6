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

from .graphs import (
    Digraph, ListSizeFn, SimpleGraph, digraph_from_json, digraph_to_json, require, require_ints,
    require_pairs, require_sizes,
)


def eulerian_counts(d):
    """Return (even, odd) counts of spanning Eulerian sub-digraphs.

    A sub-digraph qualifies when every vertex has equal in- and
    out-degree within it; parity is the parity of its arc count.  Exact
    integers; the empty sub-digraph counts as even.
    """
    # The counts do not depend on the arc order.  Taking arcs in
    # (min, max) endpoint order finishes each vertex early, and a
    # finished vertex's imbalance is pinned to 0, so few states survive.
    arcs = sorted(d.arcs, key=lambda a: (min(a), max(a), a))
    # remaining[v] = number of not-yet-decided arcs incident to v.  A
    # state packs the imbalance vector (out - in per vertex) into one
    # int, vertex v in the field at width * v biased by `bias`, and
    # maps it to (even_count, odd_count) weights.  A field stays within
    # [0, 2 * bias] even one step past the bound, so it never borrows
    # from or carries into its neighbour.
    remaining = [0] * d.n
    for u, v in arcs:
        remaining[u] += 1
        remaining[v] += 1
    bias = max(remaining, default=0) + 1
    width = (2 * bias).bit_length()
    field = (1 << width) - 1
    zero = sum(bias << (width * v) for v in range(d.n))
    states = {zero: (1, 0)}
    for u, v in arcs:
        remaining[u] -= 1
        remaining[v] -= 1
        ou, ov = width * u, width * v
        mu, mv = field << ou, field << ov
        # |imbalance| <= remaining, as bounds on the biased fields
        lo_u, hi_u = (bias - remaining[u]) << ou, (bias + remaining[u]) << ou
        lo_v, hi_v = (bias - remaining[v]) << ov, (bias + remaining[v]) << ov
        step = (1 << ou) - (1 << ov)  # take the arc: out(u) += 1, in(v) += 1
        nxt = {}
        get = nxt.get
        for imb, (ev, od) in states.items():
            if lo_u <= imb & mu <= hi_u and lo_v <= imb & mv <= hi_v:
                e0, o0 = get(imb, (0, 0))
                nxt[imb] = (e0 + ev, o0 + od)
            imb += step
            if lo_u <= imb & mu <= hi_u and lo_v <= imb & mv <= hi_v:
                e0, o0 = get(imb, (0, 0))
                nxt[imb] = (e0 + od, o0 + ev)
        states = nxt
    return states.get(zero, (0, 0))


def verify_catalog_entry(entry):
    """Recompute an entry's Eulerian counts; return (ok, got_ee, got_eo)."""
    ee, eo = eulerian_counts(entry.digraph)
    return (ee, eo) == (entry.ee, entry.eo), ee, eo


# ---------------------------------------------------------------------------
# graph polynomial coefficients

def poly_coefficient_expand(g, exponents):
    """Coefficient of prod x_i^{e_i} in prod_{ij in E, i<j} (x_i - x_j).

    A lookup in the capped expansion with caps equal to the target
    exponents.  Exact integer result under the fixed vertex order
    0..n-1; 0 when the exponents do not sum to the edge count.
    """
    exponents = tuple(exponents)
    if sum(exponents) != sum(g.degrees()) // 2:
        return 0
    return _capped_coefficients(g, exponents).get(exponents, 0)


def _capped_coefficients(g, caps):
    """All nonzero coefficients with exponents e_i <= caps[i].

    Returns {exponent tuple: coefficient} of prod_{ij in E, i<j}
    (x_i - x_j); see `_capped_expansion`.
    """
    monos, decode = _capped_expansion(g, caps)
    return {decode(k): c for k, c in monos.items()}


def _capped_expansion(g, caps):
    """The capped coefficients on packed keys: (monos, decode).

    prod_{ij in E, i<j} (x_i - x_j) is expanded edge by edge.  An
    exponent vector is packed into one int of fixed-width fields,
    vertex 0 in the most significant one, so int order is tuple order;
    `monos` maps keys to nonzero coefficients and `decode(key)` gives
    the exponent tuple.  The edges go in `_edge_order`; the product,
    and so the result, does not depend on their order.

    Every monomial has degree m, so each final exponent is at least
    caps[i] - slack with slack = sum(caps) - m.  A partial monomial
    whose vertex can no longer reach that floor with the edges left at
    it is dropped; such a state reaches no monomial within the caps, so
    the result is exact.
    """
    n = g.n
    remaining = g.degrees()
    # an exponent never exceeds the degree, and a negative cap bounds
    # like 0
    caps = [max(0, min(c, dv)) for c, dv in zip(caps, remaining)]
    width = max(caps, default=0).bit_length()
    field = (1 << width) - 1
    off = [width * (n - 1 - v) for v in range(n)]

    def decode(key):
        return tuple((key >> o) & field for o in off)

    slack = sum(caps) - sum(remaining) // 2
    if slack < 0:
        return {}, decode
    monos = {0: 1}
    for i, j in _edge_order(g):
        remaining[i] -= 1
        remaining[j] -= 1
        oi, oj = off[i], off[j]
        mi, mj = field << oi, field << oj
        cap_i, cap_j = caps[i] << oi, caps[j] << oj
        # the endpoint left without this edge must still reach its floor
        floor_i = max(caps[i] - slack - remaining[i], 0) << oi
        floor_j = max(caps[j] - slack - remaining[j], 0) << oj
        step_i, step_j = 1 << oi, 1 << oj
        nxt = {}
        get = nxt.get
        # stored coefficients are nonzero, so a zero sum means the key
        # was already there and is dropped again
        for key, coef in monos.items():
            ki, kj = key & mi, key & mj
            if ki < cap_i and kj >= floor_j:
                k = key + step_i
                c = get(k, 0) + coef
                if c:
                    nxt[k] = c
                else:
                    del nxt[k]
            if kj < cap_j and ki >= floor_i:
                k = key + step_j
                c = get(k, 0) - coef
                if c:
                    nxt[k] = c
                else:
                    del nxt[k]
        monos = nxt
    return monos, decode


def _edge_order(g):
    """The edges (i, j), i < j, in an order that keeps few fields open.

    Vertices are taken by maximum cardinality search: next is the one
    with the most neighbours already taken, then the higher degree,
    then the lower label.  Each brings its edges to the vertices taken
    before it, in the order those were taken.
    """
    adj = g.adjacency_masks()
    deg = g.degrees()
    left = set(range(g.n))
    taken = []
    edges = []
    mask = 0
    while left:
        v = max(left, key=lambda u: ((adj[u] & mask).bit_count(), deg[u], -u))
        edges.extend((min(u, v), max(u, v)) for u in taken if adj[v] >> u & 1)
        left.remove(v)
        taken.append(v)
        mask |= 1 << v
    return edges


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
        """Re-verify every claim from scratch; a digraph or budget on
        another vertex count fails."""
        if (self.digraph.support_masks() != self.graph.adjacency_masks()
                or self.f.n != self.graph.n):
            return False
        outs = self.digraph.out_degrees()
        if any(outs[v] >= self.f(v) for v in range(self.graph.n)):
            return False
        ee, eo = eulerian_counts(self.digraph)
        return (ee, eo) == (self.ee, self.eo) and ee != eo

    def to_json(self):
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
        n = require(doc, "n")
        g = SimpleGraph.from_edges(n, require_pairs(doc, "edges"))
        f = ListSizeFn(tuple(require_ints(doc, "f")))
        d = digraph_from_json(require(doc, "orientation"))
        require_sizes(n, f, d)
        return ATCertificate(g, f, d, require(doc, "ee"), require(doc, "eo"))


def is_f_AT(g, f):
    """Decide whether g has an orientation certificate within budget f.

    True iff some coefficient with exponents e_i <= f(i) - 1 is nonzero.
    Returns (answer, certificate-or-None); the certificate uses the
    lexicographically least qualifying exponent vector and the
    lexicographically first orientation realizing it.  A budget below 1
    has no orientation: no out-degree is negative.

    The least vector is found by raising vertex 0's cap one step at a
    time.  With caps c_i = min(f(i) - 1, d(i)) and slack = sum(c) - m,
    every monomial has e_0 = m - sum_{i>0} e_i >= c_0 - slack, so the
    runs start there and stop at c_0.  The capped DP gives the exact
    coefficient of every monomial inside its caps (the caps only
    filter).  So the first run that is not empty, at cap e, holds
    every nonzero monomial with e_0 <= e; the runs below it were
    empty, so e is the least e_0 of any nonzero monomial, and the
    run's least key is the least over all.  Capping vertex 0 at e
    shrinks the DP's own slack by c_0 - e, which raises every floor it
    prunes by; that is where the saving comes from.
    """
    caps = [min(f(v) - 1, dv) for v, dv in enumerate(g.degrees())]
    if min(caps, default=0) < 0:
        return False, None
    slack = sum(caps) - sum(g.degrees()) // 2
    if slack < 0:
        return False, None
    # with no vertex 0 the one run has caps [0], which the zip in
    # `_capped_expansion` cuts to no caps
    top = caps[0] if caps else 0
    for e in range(max(top - slack, 0), top + 1):
        monos, decode = _capped_expansion(g, [e] + caps[1:])
        if monos:
            break
    else:
        return False, None
    key = min(monos)
    target = decode(key)
    d = orientation_with_outdegrees(g, target)
    if d is None:
        raise RuntimeError(f"no orientation has out-degrees {target}")
    ee, eo = eulerian_counts(d)
    if abs(ee - eo) != abs(monos[key]):
        raise RuntimeError(
            f"|EE - EO| = {abs(ee - eo)} differs from the coefficient "
            f"{monos[key]} at {target}")
    return True, ATCertificate(g, f, d, ee, eo)
