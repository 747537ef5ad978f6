import random

import pytest

from colorcert import alon_tarsi, kernel
from colorcert.graphs import (
    Digraph, ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite,
    complete_graph, cycle_graph, line_graph,
)
from conftest import random_multigraph, random_simple_graph


def test_find_kernel_basics():
    # directed 3-cycle has no kernel
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert kernel.find_kernel(d) is None
    # a single arc: the head is absorbed by the sink
    d2 = Digraph.from_arcs(2, [(0, 1)])
    assert set(kernel.find_kernel(d2)) == {1}
    # restriction to a subset
    assert set(kernel.find_kernel(d, [0, 1])) == {1}


def test_find_kernel_prefers_smallest_then_lex():
    # two isolated vertices: both {0,1} works only as the full set since
    # kernels must dominate; with no arcs the only kernel is all vertices
    d = Digraph.from_arcs(2, [])
    assert set(kernel.find_kernel(d)) == {0, 1}


def test_is_kernel_perfect_classics():
    cyc = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    ok, bad = kernel.is_kernel_perfect(cyc)
    assert not ok and set(bad) == {0, 1, 2}
    # any orientation of a bipartite graph's line graph via the
    # coloring construction is kernel-perfect; quick concrete check:
    trans = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    ok, bad = kernel.is_kernel_perfect(trans)
    assert ok and bad is None


def test_characterization_matches_exhaustive_300(rng):
    # random orientations (with occasional bidirected arcs) of line
    # graphs on at most 8 vertices: the clique-orientation test must
    # agree with exhaustive kernel-perfection
    checked = 0
    while checked < 300:
        h = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6),
                              max_mult=2)
        g, origin = line_graph(h)
        if not (1 <= g.n <= 8):
            continue
        arcs = []
        for u, v in g.edge_list():
            r = rng.random()
            if r < 0.45:
                arcs.append((u, v))
            elif r < 0.9:
                arcs.append((v, u))
            else:
                arcs.extend([(u, v), (v, u)])
        d = Digraph.from_arcs(g.n, arcs)
        fast = kernel.kp_line_characterization(d, h, origin=origin)
        slow, _ = kernel.is_kernel_perfect(d)
        assert fast == slow, (h.edges, sorted(d.arcs))
        checked += 1


def test_galvin_k33():
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    cert = kernel.galvin_orientation(b)
    assert cert.check()
    assert max(cert.digraph.out_degrees()) <= 2


def test_galvin_bound_small_bipartite(rng):
    # exhaustive-ish sweep: on bipartite multigraphs with at most 8
    # edge copies the construction stays within max degree minus one
    checked = 0
    while checked < 25:
        left = rng.randint(1, 3)
        right = rng.randint(1, 3)
        n = left + right
        pairs = [(u, left + v) for u in range(left) for v in range(right)]
        rng.shuffle(pairs)
        records = []
        total = 0
        for u, v in pairs:
            m = rng.randint(0, 3)
            if m and total + m <= 8:
                records.append((u, v, m))
                total += m
        if not records:
            continue
        b = MultiGraph.from_edges(n, records)
        cert = kernel.galvin_orientation(b)
        assert cert.check()
        delta = max(b.degrees())
        for i in range(cert.graph.n):
            assert cert.digraph.out_degree(i) <= delta - 1
            assert cert.digraph.out_degree(i) <= cert.f(i) - 1
        checked += 1


def test_galvin_parallel_edges():
    # two parallel edges: line graph K2, budget 2, bidirected pair
    b = MultiGraph.from_edges(2, [(0, 1, 2)])
    cert = kernel.galvin_orientation(b)
    assert cert.check()


def test_k4_minus_e_doubling_dichotomy():
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    f = ListSizeFn(tuple(g.degree(v) for v in range(4)))
    assert kernel.is_f_KP(g, f, allow_doubling=False) is None
    cert = kernel.is_f_KP(g, f, allow_doubling=True)
    assert cert is not None and cert.check()
    assert cert.supergraph_edges  # some edge really was doubled


def test_is_f_KP_small_graphs(rng):
    # sanity: whenever a certificate is returned it verifies, and on
    # odd cycles f = 2 fails while f = 3 succeeds
    g = cycle_graph(5)
    assert kernel.is_f_KP(g, ListSizeFn.constant(5, 2)) is None
    cert = kernel.is_f_KP(g, ListSizeFn.constant(5, 3))
    assert cert is not None and cert.check()


def test_clique_order_certificates_match_tables():
    certs = kernel.mu3_kp_certificates()
    assert len(certs) == 3
    from colorcert.catalog import clique_order_catalog

    for cert, entry in zip(certs, clique_order_catalog()):
        assert cert.check()
        g = kernel._line_graph_from_origin(entry.root, entry.edge_origin)
        assert g.degrees() == list(entry.expected_degrees)
        if entry.expected_outdegrees is not None:
            assert cert.digraph.out_degrees() == list(entry.expected_outdegrees)


def test_kp_certificate_roundtrip():
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    cert = kernel.galvin_orientation(b)
    assert cert.check()
    doc = cert.to_json()
    cert2 = kernel.KPCertificate.from_json(doc)
    assert cert2.check()
    assert cert2.digraph == cert.digraph


def test_galvin_orientation_raises_when_its_checks_fail(monkeypatch):
    # these checks must survive python -O, so they raise instead of asserting
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    coloring = kernel.bipartite_edge_coloring
    with monkeypatch.context() as m:
        m.setattr(kernel, "bipartite_edge_coloring",
                  lambda b, parts: tuple(x[::-1] for x in coloring(b, parts)))
        with pytest.raises(RuntimeError, match="out of line-graph order"):
            kernel.galvin_orientation(b)
    with monkeypatch.context() as m:
        # the color-order construction fails its check, and so does the
        # star-order fallback
        m.setattr(kernel.KPCertificate, "check", lambda self: False)
        with pytest.raises(RuntimeError, match="failed its certificate check"):
            kernel.galvin_orientation(b)
