"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Every criterion is computed from scratch here; nothing is asserted
from cached results.
"""

import random
import time

import pytest

from colorcert import alon_tarsi, catalog, discharging, kernel, paint, structure
from colorcert.graphs import (
    Digraph, ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite,
    complete_multipartite_2t, cycle_graph, line_graph,
)
from conftest import random_multigraph, random_simple_graph
from test_alon_tarsi import coefficient_orientation_identity, poly_coefficient_schauz


def report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


EXPECTED_COUNTS = {
    "1a": (2, 1), "1b": (4, 3), "1c": (81, 80), "1d": (16, 17),
    "1e": (512, 515), "1f": (751, 750), "1g": (1097, 1096),
    "1h": (108, 107), "1i": (30, 28),
    "2a": (14, 12), "2b": (4, 2), "2c": (3, 1), "2d": (14, 15),
    "2e": (13, 11), "2f": (5, 3), "2g": (22, 16), "2h": (72, 74),
    "4a": (8, 9), "4b": (14, 15),
}


def test_criterion_01_catalog_counts():
    start = time.time()
    ok = True
    for e in catalog.catalog():
        ee, eo = alon_tarsi.eulerian_counts(e.digraph)
        ok = ok and (ee, eo) == EXPECTED_COUNTS[e.tag] == (e.ee, e.eo)
    ok = ok and time.time() - start < 10
    report(1, "all 19 stored orientation counts reproduce exactly", ok)


def test_criterion_02_clique_order_tables():
    start = time.time()
    entries = catalog.clique_order_catalog()
    certs = kernel.mu3_kp_certificates()
    ok = len(certs) == 3
    for cert, e in zip(certs, entries):
        g, _ = line_graph(e.root, e.edge_origin)
        ok = ok and g.degrees() == list(e.expected_degrees)
        if e.expected_outdegrees is not None:
            ok = ok and cert.digraph.out_degrees() == list(e.expected_outdegrees)
        ok = ok and cert.check()
    ok = ok and time.time() - start < 5
    report(2, "multigraph configuration degree/outdegree tables and "
              "kernel certificates", ok)


def test_criterion_03_line_k33_dichotomy():
    start = time.time()
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    g, _ = line_graph(b)
    no_at, at_cert = alon_tarsi.is_f_AT(g, ListSizeFn.constant(g.n, 3))
    galvin = kernel.galvin_orientation(b)
    ok = (not no_at and at_cert is None
          and galvin.check() and max(galvin.digraph.out_degrees()) <= 2
          and time.time() - start < 10)
    report(3, "L(K_{3,3}): no orientation certificate at outdegree <= 2, "
              "but a kernel one exists", ok)


def test_criterion_04_k2t_is_t_AT():
    start = time.time()
    ok = True
    for t in (2, 3, 4):
        g = complete_multipartite_2t(t)
        found, cert = alon_tarsi.is_f_AT(g, ListSizeFn.constant(g.n, t))
        ok = ok and found and cert.check()
    ok = ok and time.time() - start < 30
    report(4, "K_{2*t} certified t-AT for t = 2, 3, 4", ok)


def test_criterion_05_k4_minus_e_kp_dichotomy():
    start = time.time()
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    f = ListSizeFn(tuple(g.degree(v) for v in range(4)))
    plain = kernel.is_f_KP(g, f, allow_doubling=False)
    doubled = kernel.is_f_KP(g, f, allow_doubling=True)
    ok = (plain is None and doubled is not None and doubled.check()
          and len(doubled.supergraph_edges) > 0 and time.time() - start < 1)
    report(5, "K4 minus an edge: degree budget needs a doubled edge", ok)


def test_criterion_06_behavioral_closure():
    ok = True
    # orientation certificates on catalog entries with at most 7 vertices:
    # the game solver confirms paintability at budget outdegree + 1
    for e in catalog.catalog():
        if e.digraph.n > 7:
            continue
        g = e.digraph.support()
        f = ListSizeFn(tuple(d + 1 for d in e.digraph.out_degrees()))
        paintable, _ = paint.is_f_paintable(g, f)
        ok = ok and paintable
    # kernel certificates: solver agreement plus full-tree kernel play
    rng = random.Random(6)
    small_certs = []
    c5 = cycle_graph(5)
    small_certs.append(kernel.is_f_KP(c5, ListSizeFn.constant(5, 3)))
    k4e = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    small_certs.append(kernel.is_f_KP(
        k4e, ListSizeFn(tuple(k4e.degree(v) for v in range(4))),
        allow_doubling=True))
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    small_certs.append(kernel.galvin_orientation(b))
    for cert in small_certs:
        ok = ok and cert is not None and cert.check()
        paintable, _ = paint.is_f_paintable(cert.graph, cert.f)
        ok = ok and paintable
        if cert.graph.n <= 6:
            tr = paint.kernel_painter_play(
                cert.graph, cert.f, cert, adversary="exhaustive")
            ok = ok and tr.winner == "Painter"
    report(6, "every certificate on small instances is confirmed by the "
              "exact game solver and the kernel strategy never loses", ok)


def test_criterion_07_cross_oracle_equality():
    rng = random.Random(7)
    ok = True
    queries = 0
    while queries < 500:
        n = rng.randint(2, 6)
        g = random_simple_graph(rng, n, p=0.5)
        m = len(g.edges)
        if m == 0:
            continue
        exps = [0] * n
        for _ in range(m):
            exps[rng.randrange(n)] += 1
        ok = ok and (alon_tarsi.poly_coefficient_expand(g, tuple(exps))
                     == poly_coefficient_schauz(g, tuple(exps)))
        queries += 1
    checked = 0
    while checked < 200:
        n = rng.randint(2, 7)
        g = random_simple_graph(rng, n, p=0.5)
        if not g.edges:
            continue
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in g.edge_list()]
        ok = ok and coefficient_orientation_identity(
            g, Digraph.from_arcs(n, arcs))
        checked += 1
    report(7, "expansion vs interpolation on 500 queries and the "
              "coefficient-orientation identity on 200 orientations", ok)


def test_criterion_08_kp_characterization_equivalence():
    rng = random.Random(8)
    ok = True
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
        ok = ok and fast == slow
        checked += 1
    report(8, "clique/odd-cycle characterization agrees with exhaustive "
              "kernel-perfection on 300 random orientations", ok)


def test_criterion_09_discharging():
    start = time.time()
    from colorcert.graphs import complete_graph

    ok = True
    # a completed run conserves charge and pins every low-degree vertex at 12
    edges = complete_graph(13).edge_list() + [(0, 13), (1, 13)]
    h = MultiGraph.from_edges(14, edges)
    ledger = discharging.discharge(h)
    ok = ok and isinstance(ledger, discharging.ChargeLedger)
    ok = ok and ledger.conserved()
    degs = h.degrees()
    for v in range(h.n):
        if 0 < degs[v] <= 11:
            ok = ok and ledger.final[v] == 12
    # K_{7,7} yields a witness that converts into a verified certificate
    k77 = MultiGraph.from_edges(14, complete_bipartite(7, 7).edge_list())
    witness = discharging.discharge(k77)
    ok = ok and isinstance(witness, discharging.BipartiteWitness)
    if ok:
        cert = discharging.witness_to_kp(k77, witness, delta=14)
        ok = ok and cert.check()
    ok = ok and time.time() - start < 5
    report(9, "ledger conservation/charge-12 invariant and the bipartite "
              "witness-to-certificate pipeline", ok)


def test_criterion_10_desk_scale_statement():
    # the global degree-threshold theorems are out of reach at desk
    # scale by design; acceptance is that every reducible configuration,
    # construction, and characterization they rest on verifies on
    # instances -- which criteria 1 through 9 above establish.  This
    # criterion asserts the machinery agrees end to end once more on a
    # composite: scan a reducible join and verify the emitted pieces.
    from colorcert.graphs import complete_graph, join

    g = join(complete_graph(4), SimpleGraph.from_edges(2, []))
    hits = structure.bk_free_scan(g, delta=6)
    ok = bool(hits)
    for vs, kind, cert in hits:
        ok = ok and cert.check()
    report(10, "headline thresholds accepted via instance-level "
               "verification of the supporting machinery", ok)
