import random

import pytest

from colorcert import alon_tarsi, catalog
from colorcert.graphs import (
    Digraph, ListSizeFn, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, line_graph, MultiGraph,
)
from conftest import random_simple_graph


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
        b = alon_tarsi.poly_coefficient_schauz(g, tuple(exps))
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
        assert alon_tarsi.coefficient_orientation_identity(g, d)
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
        oracle = alon_tarsi.enumerate_orientation_check(g, f)
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
        ok, cert, g, f = alon_tarsi.k2t_join_certificate(s, t)
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
    ok, matching, embed = alon_tarsi.complement_bipartite_at(g, [0, 2], [1, 3])
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
