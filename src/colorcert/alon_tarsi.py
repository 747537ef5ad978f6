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

import heapq
from dataclasses import dataclass

from .graphs import Digraph, OrientationCertificate, require


def eulerian_counts(d):
    """Return (even, odd) counts of spanning Eulerian sub-digraphs.

    A sub-digraph qualifies when every vertex has equal in- and
    out-degree within it; parity is the parity of its arc count.  Exact
    integers; the empty sub-digraph counts as even.

    The arcs are decided one at a time, each taken or skipped.  A state
    is the imbalance vector imb (out - in per vertex) of the arcs taken
    so far.  With outs[v] and ins[v] the undecided out- and in-arcs at
    v, the final imbalance of v lies in [imb[v] - ins[v], imb[v] +
    outs[v]], so a state can still reach the zero vector only if

        -outs[v] <= imb[v] <= ins[v]   for every v.

    Every kept state meets this invariant, and a state that breaks it
    is dropped; that loses no Eulerian sub-digraph, so the counts are
    exact.  Deciding arc u->v lowers outs[u] and ins[v] by one and
    moves no other bound.  Skipping it leaves imb as it is, so only
    u's floor and v's ceiling can break.  Taking it raises imb[u] and
    lowers imb[v] by one, which keeps u's floor and v's ceiling, so
    only u's ceiling and v's floor can break.  Each branch thus tests
    two bounds, and the take branch tests them on the state before the
    step, so no state outside the invariant is ever built.

    The counts do not depend on the arc order.  Taking arcs in
    (min, max) endpoint order finishes each vertex early, and a
    finished vertex's imbalance is pinned to 0, so few states survive.
    """
    out, into = d.arc_masks()
    # (min, max) endpoint order, u->v before v->u
    arcs = [(u, v) if forward else (v, u) for u in range(d.n) for v in range(u + 1, d.n)
            for forward in (True, False) if (out[u] if forward else into[u]) >> v & 1]
    # A state packs imb into one int, vertex v in the field at width * v
    # biased by `bias`, and maps it to (even_count, odd_count) weights.
    # Under the invariant a field stays within [1, 2 * bias - 1], so it
    # never borrows from or carries into its neighbour.
    outs = [m.bit_count() for m in out]
    ins = [m.bit_count() for m in into]
    bias = max(outs + ins, default=0) + 1
    width = (2 * bias).bit_length()
    field = (1 << width) - 1
    zero = sum(bias << (width * v) for v in range(d.n))
    states = {zero: (1, 0)}
    for u, v in arcs:
        outs[u] -= 1
        ins[v] -= 1
        ou, ov = width * u, width * v
        mu, mv = field << ou, field << ov
        # skip: imb[u] >= -outs[u] and imb[v] <= ins[v], after the step
        floor_u, ceil_v = (bias - outs[u]) << ou, (bias + ins[v]) << ov
        # take: imb[u] + 1 <= ins[u] and imb[v] - 1 >= -outs[v], before it
        below_u, above_v = (bias + ins[u]) << ou, (bias - outs[v]) << ov
        step = (1 << ou) - (1 << ov)  # out(u) += 1, in(v) += 1
        nxt = {}
        get = nxt.get
        for imb, (ev, od) in states.items():
            iu, iv = imb & mu, imb & mv
            if iu >= floor_u and iv <= ceil_v:
                e0, o0 = get(imb, (0, 0))
                nxt[imb] = (e0 + ev, o0 + od)
            if iu < below_u and iv > above_v:
                imb += step
                e0, o0 = get(imb, (0, 0))
                nxt[imb] = (e0 + od, o0 + ev)
        states = nxt
    return states.get(zero, (0, 0))


# ---------------------------------------------------------------------------
# graph polynomial coefficients

def poly_coefficient_expand(g, exponents):
    """Coefficient of prod x_i^{e_i} in prod_{ij in E, i<j} (x_i - x_j).

    Exact, under the fixed vertex order 0..n-1: a lookup in the capped
    expansion with caps equal to the target, which leave no slack, so
    only the target can survive.  0 when the exponents do not sum to
    the edge count or an entry is negative or above its degree.
    """
    exponents = tuple(exponents)
    if sum(exponents) != sum(g.degrees()) // 2:
        return 0
    monos, decode = _capped_expansion(g, exponents)
    return sum(c for k, c in monos.items() if decode(k) == exponents)


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

    A heap holds (-taken neighbours, -degree, label) per vertex, and
    taking a vertex pushes a fresh entry for each neighbour not yet
    taken.  A vertex's count only rises, so its live entry pops before
    its stale ones, which are skipped.  earlier[v] lists v's taken
    neighbours as they are taken, so it is already in taken order.
    """
    adj = g.adjacency_masks()
    deg = g.degrees()
    heap = [(0, -deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    count = [0] * g.n
    earlier = [[] for _ in range(g.n)]
    taken = 0
    edges = []
    while heap:
        minus, _, v = heapq.heappop(heap)
        if taken >> v & 1 or -minus != count[v]:
            continue
        taken |= 1 << v
        edges += [(u, v) if u < v else (v, u) for u in earlier[v]]
        rest = adj[v] & ~taken
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            count[w] += 1
            earlier[w].append(v)
            heapq.heappush(heap, (-count[w], -deg[w], w))
    return edges


def orientation_with_outdegrees(g, target):
    """Lexicographically first orientation realizing an out-degree vector.

    Edges are taken in sorted order; at each edge the lower-endpoint
    direction is tried first.  Returns a Digraph or None.

    The search is a depth-first walk over the edges, kept on an explicit
    stack so that its depth is not bounded by the interpreter's.  With
    need[v] the out-arcs v still owes and left[v] its edges not yet
    placed, a branch is dropped once need[v] > left[v] for some v.
    Placing an edge lowers left at both ends and need at its tail only,
    so only the head can newly break that bound.  Pruning cuts only
    subtrees without a solution, so the first orientation found is the
    same.
    """
    edges = g.edge_list()
    need = list(target)
    left = g.degrees()
    # each edge pays one out-arc, and a negative need is never paid off
    if (min(need, default=0) < 0 or sum(need) != len(edges)
            or any(need[v] > left[v] for v in range(g.n))):
        return None
    tails = []
    # side = 0 tries the lower endpoint as the tail, 1 the higher one,
    # 2 backs out of the edge
    side = 0
    while len(tails) < len(edges):
        i, j = edges[len(tails)]
        if side < 2:
            tail, head = (i, j) if side == 0 else (j, i)
            side += 1
            if need[tail] > 0 and need[head] < left[head]:
                need[tail] -= 1
                left[i] -= 1
                left[j] -= 1
                tails.append(tail)
                side = 0
            continue
        if not tails:
            return None
        tail = tails.pop()
        i, j = edges[len(tails)]
        need[tail] += 1
        left[i] += 1
        left[j] += 1
        side = 1 if tail == i else 2
    return Digraph.from_arcs(g.n, [(i, j) if t == i else (j, i)
                                   for (i, j), t in zip(edges, tails)])


@dataclass(eq=False)
class ATCertificate(OrientationCertificate):
    """A verified orientation witness for list-colorability bounds.

    Holds the graph, the list-size budget it certifies against, the
    witnessing orientation, and its Eulerian counts.
    """

    ee: int
    eo: int

    def check(self):
        """Re-verify every claim from scratch; a digraph or budget on
        another vertex count fails."""
        if not self.fits():
            return False
        ee, eo = eulerian_counts(self.digraph)
        return (ee, eo) == (self.ee, self.eo) and ee != eo

    def to_json(self):
        return {**super().to_json(), "ee": self.ee, "eo": self.eo}

    @staticmethod
    def from_json(doc):
        return ATCertificate(*OrientationCertificate.read(doc), require(doc, "ee"),
                             require(doc, "eo"))


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
