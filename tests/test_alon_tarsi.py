import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcert import alon_tarsi, catalog
from colorcert.alon_tarsi import eulerian_counts, is_f_AT, poly_coefficient_expand
from colorcert.graphs import (
    Digraph, FormatError, ListSizeFn, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, join, line_graph, MultiGraph,
)
from conftest import SIZE_PROBES, certificate_parts, random_simple_graph, resized


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
        ee, eo = alon_tarsi.eulerian_counts(entry.digraph)
        assert (ee, eo) == (entry.ee, entry.eo), f"{entry.tag}: computed ({ee}, {eo})"


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
        m = len(g.edge_list())
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
        if not g.edge_list():
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
        if not g.edge_list():
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


def _c5_certificate():
    return alon_tarsi.is_f_AT(cycle_graph(5), ListSizeFn.constant(5, 3))[1].to_json()


@pytest.mark.parametrize("probe", sorted(SIZE_PROBES))
def test_a_certificate_on_another_vertex_count_is_refused(probe):
    # read from JSON it names the key; built in code its check fails
    # without raising
    doc = _c5_certificate()
    assert alon_tarsi.ATCertificate(*certificate_parts(doc), doc["ee"], doc["eo"]).check()
    bad = resized(doc, probe)
    with pytest.raises(FormatError, match=SIZE_PROBES[probe]):
        alon_tarsi.ATCertificate.from_json(bad)
    cert = alon_tarsi.ATCertificate(*certificate_parts(bad), doc["ee"], doc["eo"])
    assert not cert.check()


@pytest.mark.parametrize("key", ["n", "edges", "f", "orientation", "ee", "eo"])
def test_a_certificate_without_a_key_names_it(key):
    doc = _c5_certificate()
    del doc[key]
    with pytest.raises(FormatError, match=f"'{key}'"):
        alon_tarsi.ATCertificate.from_json(doc)


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
        if not g.edge_list():
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


@pytest.mark.parametrize("n, edges, budget", [
    (1, [], (0,)), (3, [(0, 1), (1, 2)], (0, 2, 2)), (3, [(0, 1), (1, 2)], (2, -1, 2)),
])
def test_is_f_AT_refuses_a_budget_below_one(n, edges, budget):
    # no out-degree is negative, so an empty list has no orientation; a
    # certificate here would fail its own check
    g = SimpleGraph.from_edges(n, edges)
    assert is_f_AT(g, ListSizeFn(budget)) == (False, None)
    raised = ListSizeFn(tuple(max(k, 1) for k in budget))
    ok, cert = is_f_AT(g, raised)
    assert ok and cert.check()


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
    m = len(g.edge_list())
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


# eulerian_counts before it bounded each vertex by its undecided out- and
# in-arcs apart: the symmetric pruning, kept verbatim as an oracle

def _eulerian_counts_symmetric(d):
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


def _decoded_expansion(g, caps):
    """`_capped_expansion`'s coefficients by exponent tuple."""
    monos, decode = alon_tarsi._capped_expansion(g, caps)
    return {decode(k): c for k, c in monos.items()}


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
        if g.edge_list():
            negative[rng.choice([v for v in range(n) if outs[v]])] -= 1
        free = [rng.randint(-1, d + 1) for d in deg]
        for name, caps in (("zero", outs), ("small", small),
                           ("negative", negative), ("free", free)):
            got = _decoded_expansion(g, caps)
            assert got == _capped_coefficients_oracle(g, caps), (g.edge_list(), caps)
            slacks[name] += bool(got) and bool(g.edge_list())
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
                assert _decoded_expansion(g, caps) == \
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


def test_poly_coefficient_expand_matches_the_oracle_off_range(rng):
    # out-degree vectors, the same moved to a negative entry or above a
    # degree with the sum kept, wrong sums, and free draws: the lookup
    # reads 0 wherever the full expansion has no such monomial
    checked = nonzero = 0
    while checked < 6000:
        g = random_simple_graph(rng, rng.randint(2, 7), p=rng.uniform(0.2, 0.9))
        deg = g.degrees()
        full = _capped_coefficients_oracle(g, deg)
        for _ in range(20):
            outs = _outdegree_vector(g, rng)
            u, v = rng.sample(range(g.n), 2)
            low, high, wrong = list(outs), list(outs), list(outs)
            low[u], low[v] = -1, outs[v] + outs[u] + 1
            high[u], high[v] = deg[u] + 1, outs[v] + outs[u] - deg[u] - 1
            wrong[u] += rng.choice((-1, 1))
            for e in (outs, low, high, wrong, [rng.randint(-2, d + 2) for d in deg]):
                e = tuple(e)
                want = full.get(e, 0)
                assert alon_tarsi.poly_coefficient_expand(g, e) == want, (g.edge_list(), e)
                checked += 1
                nonzero += want != 0
    assert nonzero > 500


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


# ---------------------------------------------------------------------------
# is_f_AT before it raised vertex 0's cap step by step: one expansion
# with the full caps, kept verbatim as the oracle

def _is_f_AT_single_pass(g, f):
    """Decide whether g has an orientation certificate within budget f.

    True iff some coefficient with exponents e_i <= f(i) - 1 is nonzero.
    Returns (answer, certificate-or-None); the certificate uses the
    lexicographically least qualifying exponent vector and the
    lexicographically first orientation realizing it.  A budget below 1
    has no orientation: no out-degree is negative.
    """
    caps = tuple(f(v) - 1 for v in range(g.n))
    if min(caps, default=0) < 0:
        return False, None
    monos, decode = alon_tarsi._capped_expansion(g, caps)
    if not monos:
        return False, None
    key = min(monos)
    target = decode(key)
    d = alon_tarsi.orientation_with_outdegrees(g, target)
    if d is None:
        raise RuntimeError(f"no orientation has out-degrees {target}")
    ee, eo = eulerian_counts(d)
    if abs(ee - eo) != abs(monos[key]):
        raise RuntimeError(
            f"|EE - EO| = {abs(ee - eo)} differs from the coefficient "
            f"{monos[key]} at {target}")
    return True, alon_tarsi.ATCertificate(g, f, d, ee, eo)


def _verdict(g, f, solve=is_f_AT):
    """(ok, target, orientation, ee, eo) of one call."""
    ok, cert = solve(g, f)
    if not ok:
        return False, None, None, None, None
    d = cert.digraph
    return True, tuple(d.out_degrees()), d, cert.ee, cert.eo


def _counting_expansion(monkeypatch):
    """Record the caps of every `_capped_expansion` call."""
    calls = []
    expand = alon_tarsi._capped_expansion
    monkeypatch.setattr(alon_tarsi, "_capped_expansion",
                        lambda g, caps: calls.append(list(caps)) or expand(g, caps))
    return calls


# vertex 0 needs out-degree 3 at budget 4 although the caps allow 0;
# only the fourth run, at cap 3, is not empty
_LATE_FIRST_RUN = SimpleGraph.from_edges(8, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
    (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)])


def test_is_f_AT_raises_vertex_0_cap_until_a_run_is_not_empty(monkeypatch):
    g, f = _LATE_FIRST_RUN, ListSizeFn.constant(8, 4)
    want = _verdict(g, f, _is_f_AT_single_pass)
    calls = _counting_expansion(monkeypatch)
    assert _verdict(g, f) == want and want[0]
    assert [caps[0] for caps in calls] == [0, 1, 2, 3]
    assert want[1][0] == 3


def test_is_f_AT_runs_no_expansion_below_the_edge_count(monkeypatch):
    # L(K_{3,3}) at budget 2: 9 vertices with caps 1, 18 edges
    lk33, _ = line_graph(MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))
    cases = ((lk33, ListSizeFn.constant(9, 2)), (complete_graph(4), ListSizeFn.constant(4, 2)))
    assert all(_is_f_AT_single_pass(g, f) == (False, None) for g, f in cases)
    calls = _counting_expansion(monkeypatch)
    assert all(is_f_AT(g, f) == (False, None) for g, f in cases)
    assert calls == []


@pytest.mark.parametrize("n, edges, budget", [
    (0, [], ()), (1, [], (1,)), (1, [], (3,)),
    # vertex 0 isolated
    (4, [(1, 2), (2, 3), (1, 3)], (1, 3, 3, 3)), (4, [(1, 2), (2, 3), (1, 3)], (2, 2, 2, 2)),
    # caps[0] = 0 with edges at vertex 0
    (3, [(0, 1), (0, 2), (1, 2)], (1, 2, 3)), (3, [(0, 1), (0, 2), (1, 2)], (1, 2, 2)),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)], (1, 2, 2, 2, 2)),
    # slack < 0
    (3, [(0, 1), (0, 2), (1, 2)], (2, 2, 1)), (4, [(0, 1), (1, 2), (2, 3), (0, 3)], (1, 2, 1, 2)),
])
def test_is_f_AT_matches_the_single_pass_on_edge_cases(n, edges, budget):
    g, f = SimpleGraph.from_edges(n, edges), ListSizeFn(budget)
    assert _verdict(g, f) == _verdict(g, f, _is_f_AT_single_pass)


def test_is_f_AT_matches_the_single_pass_on_relabelled_families(rng):
    seen = {True: 0, False: 0}
    for g0, k in _families() + [(_LATE_FIRST_RUN, 4)]:
        for _ in range(3):
            g = _relabel(g0, rng)
            for f in (ListSizeFn.constant(g.n, k), ListSizeFn.constant(g.n, k - 1),
                      ListSizeFn(tuple(rng.randint(max(k - 1, 1), k + 1) for _ in range(g.n)))):
                got = _verdict(g, f)
                assert got == _verdict(g, f, _is_f_AT_single_pass), (g.edge_list(), f.values)
                seen[got[0]] += 1
    assert min(seen.values()) >= 10, seen


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.data())
def test_is_f_AT_matches_the_single_pass_fuzz(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = SimpleGraph.from_edges(n, edges)
    deg = g.degrees()
    budget = tuple(data.draw(st.integers(0, d + 2)) for d in deg)
    f = ListSizeFn(budget)
    assert _verdict(g, f) == _verdict(g, f, _is_f_AT_single_pass), (edges, budget)


# ---------------------------------------------------------------------------
# eulerian_counts against the symmetric pruning and the tuple-based oracle,
# on digraphs aimed at the one-sided bounds: a source has no in-arcs, so
# its ceiling is 0 from the start, and a sink's floor is

def _all_three(d):
    """(EE, EO) from eulerian_counts, after checking that the symmetric
    pruning and the tuple-based oracle agree with it."""
    got = eulerian_counts(d)
    assert got == _eulerian_counts_symmetric(d) == _eulerian_counts_oracle(d), sorted(d.arcs)
    return got


def _relabelled_digraph(d, rng):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph.from_arcs(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def _sources_and_sinks(rng, n):
    """A random digraph, some pairs bidirected, with about a third of
    its vertices made sources and a third sinks (the later vertex wins
    a pair of both)."""
    role = [rng.choice("ois") for _ in range(n)]
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                r = rng.random()
                arcs.update([(u, v), (v, u)] if r < 0.2 else [(u, v) if r < 0.6 else (v, u)])
    for w in range(n):
        if role[w] != "i":
            touching = [a for a in arcs if w in a]
            arcs.difference_update(touching)
            arcs.update((w, a[0] + a[1] - w) if role[w] == "o" else (a[0] + a[1] - w, w)
                        for a in touching)
    return Digraph.from_arcs(n, arcs)


def _transitive_tournament(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph.from_arcs(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)])


def _bidirected(rng, n):
    g = random_simple_graph(rng, n, p=rng.uniform(0.3, 0.9))
    return Digraph.from_arcs(n, [a for u, v in g.edge_list() for a in ((u, v), (v, u))])


def _with_isolated(rng, d):
    """d on more vertices: the new ones isolated, the labels shuffled."""
    return _relabelled_digraph(Digraph.from_arcs(d.n + rng.randint(1, 3), d.arcs), rng)


def test_eulerian_counts_agree_on_sources_and_sinks(rng):
    for _ in range(150):
        d = _sources_and_sinks(rng, rng.randint(2, 7))
        assert _all_three(d) == _all_three(_with_isolated(rng, d))


@pytest.mark.parametrize("n", range(8))
def test_eulerian_counts_of_a_transitive_tournament_are_the_empty_set(n, rng):
    # acyclic, so the empty sub-digraph is the only Eulerian one
    for _ in range(3):
        assert _all_three(_transitive_tournament(rng, n)) == (1, 0)


def test_eulerian_counts_agree_on_bidirected_digraphs(rng):
    # every pair both ways: no arc is one-sided, and odd counts come
    # only from cycles of length 3 and more
    for _ in range(40):
        d = _bidirected(rng, rng.randint(1, 7))
        # any union of 2-cycles is Eulerian and even
        ee, eo = _all_three(d)
        assert ee >= 2 ** (len(d.arcs) // 2)
        assert (ee, eo) == _all_three(_with_isolated(rng, d))


@pytest.mark.parametrize("n", [0, 1])
def test_eulerian_counts_with_at_most_one_vertex(n):
    assert _all_three(Digraph.from_arcs(n, [])) == (1, 0)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_eulerian_counts_agree_on_relabelled_k2t_certificates(t, rng):
    for _ in range(3):
        g = _relabel(complete_multipartite_2t(t), rng)
        ok, cert = is_f_AT(g, ListSizeFn.constant(g.n, t))
        assert ok
        d = cert.digraph
        reverse = Digraph.from_arcs(d.n, [(v, u) for u, v in d.arcs])
        # reversing every arc swaps sources and sinks and keeps the counts
        assert _all_three(d) == _all_three(reverse) == (cert.ee, cert.eo)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 7), st.data())
def test_eulerian_counts_agree_fuzz(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    _all_three(Digraph.from_arcs(n, arcs))


# ---------------------------------------------------------------------------
# orientation_with_outdegrees before its search kept an explicit stack:
# the recursive version, kept verbatim as an oracle

def _orientation_with_outdegrees_recursive(g, target):
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


def _targets(g, rng):
    """Out-degree vectors for g: one realized by a random orientation,
    one unit moved between two vertices (often unrealizable), one with
    the wrong sum and one with a negative entry."""
    outs = _outdegree_vector(g, rng)
    moved = list(outs)
    if g.n > 1:
        a, b = rng.sample(range(g.n), 2)
        moved[a] += 1
        moved[b] -= 1
    more = list(outs)
    more[rng.randrange(g.n)] += 1
    negative = [x - 1 if v == 0 else x + (v == 1) for v, x in enumerate(outs)]
    return [outs, moved, more, negative]


def test_orientation_search_matches_the_recursive_one_random(rng):
    found = 0
    for _ in range(300):
        g = random_simple_graph(rng, rng.randint(1, 8), p=rng.uniform(0.2, 0.9))
        for target in _targets(g, rng):
            got = alon_tarsi.orientation_with_outdegrees(g, target)
            assert got == _orientation_with_outdegrees_recursive(g, target), \
                (g.edge_list(), target)
            if got is not None:
                assert got.out_degrees() == target
                found += 1
    assert found > 300


def test_orientation_search_matches_the_recursive_one_on_families(rng):
    for g0, k in _families() + [(_LATE_FIRST_RUN, 4)]:
        for _ in range(3):
            g = _relabel(g0, rng)
            targets = _targets(g, rng)
            ok, cert = is_f_AT(g, ListSizeFn.constant(g.n, k))
            if ok:
                targets.append(cert.digraph.out_degrees())
            for target in targets:
                assert alon_tarsi.orientation_with_outdegrees(g, target) == \
                    _orientation_with_outdegrees_recursive(g, target), (g.edge_list(), target)


def test_orientation_search_is_not_bounded_by_the_recursion_limit():
    # a path with more edges than the interpreter's default depth
    n = 1500
    g = SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    target = [1] * (n - 1) + [0]
    d = alon_tarsi.orientation_with_outdegrees(g, target)
    assert d.arcs == [(v, v + 1) for v in range(n - 1)]
    # the last edge must point back, so the search backs out of one step
    target = [1] * (n - 2) + [0, 1]
    d = alon_tarsi.orientation_with_outdegrees(g, target)
    assert d.out_degrees() == target and (n - 1, n - 2) in d.arcs


# the edge order against the scan it replaced

def _edge_order_by_scan(g):
    """Maximum cardinality search by a scan of every vertex not yet
    taken, each step; each taken vertex brings its edges to the earlier
    ones in the order those were taken."""
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.data())
def test_edge_order_matches_the_scan(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = SimpleGraph.from_edges(n, edges)
    order = alon_tarsi._edge_order(g)
    assert order == _edge_order_by_scan(g)
    assert sorted(order) == g.edge_list()


def test_edge_order_matches_the_scan_on_families(rng):
    for g0, _k in _families():
        for _ in range(3):
            g = _relabel(g0, rng)
            assert alon_tarsi._edge_order(g) == _edge_order_by_scan(g), g.edge_list()
    # a long path, where the scan is quadratic: vertex 1 (the least of
    # degree 2) first, then along the path to 2998; the two ends tie
    # last, and the lower label goes first
    path = SimpleGraph.from_edges(3000, [(v, v + 1) for v in range(2999)])
    assert alon_tarsi._edge_order(path) == (
        [(v, v + 1) for v in range(1, 2998)] + [(0, 1), (2998, 2999)])
