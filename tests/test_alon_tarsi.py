import random
from fractions import Fraction
from itertools import product

import pytest

from colorcert import alon_tarsi, catalog
from colorcert.alon_tarsi import eulerian_counts, is_f_AT, poly_coefficient_expand
from colorcert.graphs import (
    Digraph, ListSizeFn, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, join, line_graph, MultiGraph,
)
from conftest import random_simple_graph


# ---------------------------------------------------------------------------
# oracles: a second coefficient route, brute force over orientations and
# the clique-join constructions, kept only to cross-check the package

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
    if total.denominator != 1:
        raise RuntimeError(f"interpolation gave a non-integral coefficient {total}")
    return int(total)


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


def test_eulerian_counts_triangle():
    # directed 3-cycle: the empty set (even) and the full cycle (odd)
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert alon_tarsi.eulerian_counts(d) == (1, 1)


def test_eulerian_counts_bidirected_edge():
    # single bidirected edge: empty set and the 2-cycle, both even
    d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert alon_tarsi.eulerian_counts(d) == (2, 0)


def test_eulerian_counts_acyclic():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert alon_tarsi.eulerian_counts(d) == (1, 0)


def test_catalog_counts_all_match():
    for entry in catalog.catalog():
        ok, ee, eo = alon_tarsi.verify_catalog_entry(entry)
        assert ok, f"{entry.tag}: computed ({ee}, {eo})"


def test_eulerian_counts_brute_force(rng):
    # oracle: enumerate all arc subsets and test in-degree == out-degree
    from itertools import combinations

    for _ in range(15):
        g = random_simple_graph(rng, rng.randint(2, 5))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in g.edge_list()]
        d = Digraph.from_arcs(g.n, arcs)
        arc_list = sorted(d.arcs)
        ee = eo = 0
        for size in range(len(arc_list) + 1):
            for sub in combinations(arc_list, size):
                imb = [0] * d.n
                for u, v in sub:
                    imb[u] += 1
                    imb[v] -= 1
                if all(x == 0 for x in imb):
                    if size % 2 == 0:
                        ee += 1
                    else:
                        eo += 1
        assert alon_tarsi.eulerian_counts(d) == (ee, eo)


def test_expand_vs_schauz_500_queries(rng):
    queries = 0
    while queries < 500:
        n = rng.randint(2, 6)
        g = random_simple_graph(rng, n, p=0.5)
        m = len(g.edges)
        if m == 0:
            continue
        # random exponent vector summing to the edge count
        exps = [0] * n
        for _ in range(m):
            exps[rng.randrange(n)] += 1
        a = alon_tarsi.poly_coefficient_expand(g, tuple(exps))
        b = poly_coefficient_schauz(g, tuple(exps))
        assert a == b, (g.edge_list(), exps, a, b)
        queries += 1


def test_coefficient_orientation_identity_200(rng):
    # |coefficient of x^k| equals |EE - EO| for any orientation with
    # outdegree vector k
    checked = 0
    while checked < 200:
        n = rng.randint(2, 7)
        g = random_simple_graph(rng, n, p=0.5)
        if not g.edges:
            continue
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in g.edge_list()]
        d = Digraph.from_arcs(n, arcs)
        assert coefficient_orientation_identity(g, d)[0]
        checked += 1


def test_is_f_AT_matches_orientation_enumeration(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        g = random_simple_graph(rng, n, p=0.6)
        if not g.edges:
            continue
        f = ListSizeFn(tuple(rng.randint(1, max(1, g.degree(v)))
                             for v in range(n)))
        got, cert = alon_tarsi.is_f_AT(g, f)
        oracle = enumerate_orientation_check(g, f)
        assert got == oracle
        if got:
            assert cert.check()


def test_certificate_roundtrip():
    g = cycle_graph(5)
    f = ListSizeFn.constant(5, 3)
    ok, cert = alon_tarsi.is_f_AT(g, f)
    assert ok
    doc = cert.to_json()
    cert2 = alon_tarsi.ATCertificate.from_json(doc)
    assert cert2.check()
    assert cert2.digraph == cert.digraph


def test_odd_cycle_dichotomy():
    # odd cycles are 3-AT but not 2-AT; even cycles are 2-AT
    for n, k, expect in [(5, 2, False), (5, 3, True),
                         (6, 2, True), (7, 2, False)]:
        g = cycle_graph(n)
        ok, _ = alon_tarsi.is_f_AT(g, ListSizeFn.constant(n, k))
        assert ok == expect


def test_complete_graph_needs_n_colors():
    g = complete_graph(4)
    assert alon_tarsi.is_f_AT(g, ListSizeFn.constant(4, 4))[0]
    assert not alon_tarsi.is_f_AT(g, ListSizeFn.constant(4, 3))[0]


def test_k2t_is_t_AT():
    for t in (2, 3):
        g = complete_multipartite_2t(t)
        ok, cert = alon_tarsi.is_f_AT(g, ListSizeFn.constant(g.n, t))
        assert ok and cert.check()


def test_clique_join_e2_power_certificate():
    # join(K_s, K_{2*t}) has an orientation certificate for f = s + t
    for s, t in [(1, 1), (2, 1), (1, 2)]:
        ok, cert, g, f = k2t_join_certificate(s, t)
        assert ok and cert.check()
        assert all(cert.digraph.out_degree(v) < f(v) for v in range(g.n))


def test_edge_deletion_preserves_AT(rng):
    # if g has an orientation certificate for f, so does g minus an edge
    for _ in range(15):
        g = random_simple_graph(rng, rng.randint(3, 5), p=0.6)
        if not g.edges:
            continue
        f = ListSizeFn(tuple(max(1, g.degree(v)) for v in range(g.n)))
        if not alon_tarsi.is_f_AT(g, f)[0]:
            continue
        e = rng.choice(g.edge_list())
        smaller = SimpleGraph.from_edges(
            g.n, [x for x in g.edge_list() if x != e])
        assert alon_tarsi.is_f_AT(smaller, f)[0]


def test_line_k33_has_no_low_outdegree_orientation():
    h = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    g, _ = line_graph(h)
    ok, cert = alon_tarsi.is_f_AT(g, ListSizeFn.constant(g.n, 3))
    assert not ok and cert is None


def test_complement_bipartite_embedding():
    # a co-bipartite quasi-order instance embeds into a clique join
    g = complete_multipartite_2t(2)
    ok, matching, embed = complement_bipartite_at(g, [0, 2], [1, 3])
    assert ok
    # each rest vertex is matched to a non-neighbor in the clique
    for bv, av in matching.items():
        assert not g.has_edge(bv, av)


def test_is_f_AT_raises_when_its_identity_breaks(monkeypatch):
    # these checks must survive python -O, so they raise instead of asserting
    g = cycle_graph(4)
    f = ListSizeFn.constant(4, 2)
    assert alon_tarsi.is_f_AT(g, f)[0]
    with monkeypatch.context() as m:
        m.setattr(alon_tarsi, "orientation_with_outdegrees", lambda g, t: None)
        with pytest.raises(RuntimeError, match="no orientation"):
            alon_tarsi.is_f_AT(g, f)
    with monkeypatch.context() as m:
        m.setattr(alon_tarsi, "eulerian_counts", lambda d: (0, 0))
        with pytest.raises(RuntimeError, match="differs from the coefficient"):
            alon_tarsi.is_f_AT(g, f)


def test_schauz_raises_on_a_non_integral_total(monkeypatch):
    # no small graph gives a non-integral interpolation sum, so cut the
    # grid down to one point whose term is 1/2; the check must survive
    # python -O, so it raises instead of asserting
    g = SimpleGraph.from_edges(2, [(0, 1)])
    assert poly_coefficient_schauz(g, (2, 1)) == 0
    with monkeypatch.context() as m:
        m.setitem(globals(), "product", lambda *grids: [(2, 1)])
        with pytest.raises(RuntimeError, match="non-integral"):
            poly_coefficient_schauz(g, (2, 1))


# ---------------------------------------------------------------------------
# slow oracles for the packed dynamic programs: the tuple-based versions,
# kept verbatim

def _capped_coefficients_oracle(g, caps):
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


def _eulerian_counts_oracle(d):
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


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def _outdegree_vector(g, rng):
    """Out-degrees of a random orientation: a cap vector with slack 0."""
    outs = [0] * g.n
    for u, v in g.edge_list():
        outs[rng.choice((u, v))] += 1
    return outs


def _families():
    """The hard families at their AT budgets: (graph, f)."""
    lk33, _ = line_graph(MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))
    return [
        (complete_multipartite_2t(3), 3),
        (complete_multipartite_2t(4), 4),
        (join(complete_graph(1), complete_multipartite_2t(3)), 4),
        (join(complete_graph(2), complete_multipartite_2t(3)), 5),
        (lk33, 3),
    ]


def test_capped_coefficients_match_oracle_random(rng):
    # slack 0 (an out-degree vector), small slack, negative slack, and
    # caps drawn freely around the degrees (some negative)
    slacks = {"zero": 0, "small": 0, "negative": 0, "free": 0}
    graphs = 0
    while graphs < 400:
        n = rng.randint(1, 7)
        g = random_simple_graph(rng, n, p=rng.uniform(0.2, 0.9))
        deg = g.degrees()
        outs = _outdegree_vector(g, rng)
        small = list(outs)
        for _ in range(rng.randint(1, 3)):
            small[rng.randrange(n)] += 1
        negative = list(outs)
        if g.edges:
            negative[rng.choice([v for v in range(n) if outs[v]])] -= 1
        free = [rng.randint(-1, d + 1) for d in deg]
        for name, caps in (("zero", outs), ("small", small),
                           ("negative", negative), ("free", free)):
            got = alon_tarsi._capped_coefficients(g, caps)
            assert got == _capped_coefficients_oracle(g, caps), (g.edge_list(), caps)
            slacks[name] += bool(got) and bool(g.edges)
        graphs += 1
    # the slack-0 and small-slack caps reach nonzero coefficients often;
    # below the edge count nothing is left
    assert slacks["zero"] > 100 and slacks["small"] > 100 and slacks["free"] > 50
    assert slacks["negative"] == 0


def test_capped_coefficients_match_oracle_on_families(rng):
    for g0, k in _families():
        for _ in range(2):
            g = _relabel(g0, rng)
            for caps in ([k - 1] * g.n, [k] * g.n, _outdegree_vector(g, rng)):
                assert alon_tarsi._capped_coefficients(g, caps) == \
                    _capped_coefficients_oracle(g, caps), (g.edge_list(), caps)


def test_is_f_AT_matches_the_oracle_expansion(rng):
    # same verdict, lex-least target, orientation and (EE, EO) as the
    # tuple-based expansion would give
    cases = [(_relabel(g, rng), k) for g, k in _families() for _ in range(2)]
    cases += [(g, k) for g, k in
              ((random_simple_graph(rng, rng.randint(4, 7), p=0.6), rng.randint(2, 4))
               for _ in range(60))]
    for g, k in cases:
        f = ListSizeFn.constant(g.n, k)
        coeffs = _capped_coefficients_oracle(g, [k - 1] * g.n)
        ok, cert = alon_tarsi.is_f_AT(g, f)
        assert ok == bool(coeffs)
        if ok:
            target = min(coeffs)
            assert tuple(cert.digraph.out_degrees()) == target
            assert cert.digraph == alon_tarsi.orientation_with_outdegrees(g, target)
            assert (cert.ee, cert.eo) == _eulerian_counts_oracle(cert.digraph)
            assert abs(cert.ee - cert.eo) == abs(coeffs[target])


def test_poly_coefficient_expand_is_a_lookup(rng):
    g = complete_multipartite_2t(3)
    coeffs = _capped_coefficients_oracle(g, [3] * g.n)
    for e, c in coeffs.items():
        assert alon_tarsi.poly_coefficient_expand(g, e) == c
    assert alon_tarsi.poly_coefficient_expand(g, (2,) * 6) == coeffs.get((2,) * 6, 0)
    # exponents that do not sum to the edge count name no coefficient
    assert alon_tarsi.poly_coefficient_expand(g, (1,) * 6) == 0
    assert alon_tarsi.poly_coefficient_expand(g, (3,) * 6) == 0


def test_eulerian_counts_match_oracle_random(rng):
    # random digraphs, about a quarter of the pairs bidirected
    bidirected = 0
    for _ in range(300):
        g = random_simple_graph(rng, rng.randint(1, 7), p=rng.uniform(0.2, 0.9))
        arcs = []
        for u, v in g.edge_list():
            r = rng.random()
            if r < 0.25:
                arcs += [(u, v), (v, u)]
                bidirected += 1
            else:
                arcs.append((u, v) if r < 0.625 else (v, u))
        d = Digraph.from_arcs(g.n, arcs)
        assert alon_tarsi.eulerian_counts(d) == _eulerian_counts_oracle(d), arcs
    assert bidirected > 100


def test_eulerian_counts_match_oracle_on_shuffled_catalog(rng):
    for entry in catalog.catalog():
        d = entry.digraph
        for _ in range(2):
            perm = list(range(d.n))
            rng.shuffle(perm)
            e = Digraph.from_arcs(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
            assert alon_tarsi.eulerian_counts(e) == _eulerian_counts_oracle(e) \
                == (entry.ee, entry.eo), entry.tag
