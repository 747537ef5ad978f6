import random
import time
from itertools import combinations

import pytest

from colorcert import alon_tarsi, catalog, kernel
from colorcert.graphs import (
    Digraph, FormatError, ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite,
    complete_graph, cycle_graph, degree_route, edge_copies, line_graph,
)
from conftest import (
    SIZE_PROBES, certificate_parts, random_multigraph, random_simple_graph, resized,
)


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
    assert kernel.is_kernel_perfect(Digraph.from_arcs(0, [])) == (True, None)
    # a bidirected pair is an edge: each end alone is a kernel
    assert kernel.is_kernel_perfect(Digraph.from_arcs(2, [(0, 1), (1, 0)])) == (True, None)
    # the first failing set is the least by size, then lexicographically
    two = Digraph.from_arcs(6, [(3, 4), (4, 5), (5, 3), (0, 1), (1, 2), (2, 0)])
    assert kernel.is_kernel_perfect(two) == (False, {0, 1, 2})
    with pytest.raises(ValueError, match="capped"):
        kernel.is_kernel_perfect(Digraph.from_arcs(13, []))


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
    certs = catalog.mu3_kp_certificates()
    assert len(certs) == 3
    for cert, entry in zip(certs, catalog.clique_order_catalog()):
        assert cert.check()
        g, _ = line_graph(entry.root, entry.edge_origin)
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


@pytest.mark.parametrize("probe", sorted(SIZE_PROBES))
def test_a_certificate_on_another_vertex_count_is_refused(probe):
    # read from JSON it names the key; built in code its check fails
    # without raising
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    doc = kernel.galvin_orientation(b).to_json()
    del doc["root"]
    assert kernel.KPCertificate(*certificate_parts(doc)).check()
    bad = resized(doc, probe)
    with pytest.raises(FormatError, match=SIZE_PROBES[probe]):
        kernel.KPCertificate.from_json(bad)
    assert not kernel.KPCertificate(*certificate_parts(bad)).check()


@pytest.mark.parametrize("key", ["n", "edges", "f", "orientation"])
def test_a_kp_certificate_without_a_key_names_it(key):
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    doc = kernel.galvin_orientation(b).to_json()
    del doc[key]
    with pytest.raises(FormatError, match=f"'{key}'"):
        kernel.KPCertificate.from_json(doc)


@pytest.mark.parametrize("doubled", [[], [[1, 2], [0, 1]], [[0, 1]], [["1", 2]]],
                         ids=["dropped", "extra", "other", "strings"])
def test_a_certificate_whose_doubled_pairs_are_not_its_orientations_is_refused(doubled):
    # the pairs are read off the orientation, so a document that lists
    # others is malformed, named by its key
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    doc = kernel.is_f_KP(g, ListSizeFn(tuple(g.degrees())), allow_doubling=True).to_json()
    assert doc["doubled"] == [[1, 2]]
    for same in ([[1, 2]], [[2, 1]], [[1, 2], [2, 1]]):
        assert kernel.KPCertificate.from_json({**doc, "doubled": same}).supergraph_edges == [(1, 2)]
    with pytest.raises(FormatError, match="'doubled'"):
        kernel.KPCertificate.from_json({**doc, "doubled": doubled})
    # an absent list means no pair is doubled
    with pytest.raises(FormatError, match="'doubled'"):
        kernel.KPCertificate.from_json({k: v for k, v in doc.items() if k != "doubled"})


def test_galvin_orientation_raises_when_its_checks_fail(monkeypatch):
    # these checks must survive python -O, so they raise instead of asserting
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    with monkeypatch.context() as m:
        # the color-order construction fails its check, and so does the
        # star-order fallback
        m.setattr(kernel.KPCertificate, "check", lambda self: False)
        with pytest.raises(RuntimeError, match="failed its certificate check"):
            kernel.galvin_orientation(b)


# ---------------------------------------------------------------------------
# the pruned star-order search against the earlier unpruned one

def _order_orientation(b, copies, order_pos):
    """Orient the line graph from per-root-vertex priority positions.

    order_pos[v] maps edge-copy index -> position in v's linear order;
    arcs run from later positions toward earlier ones, so the common
    sink of each clique order absorbs its clique.
    """
    arcs = set()
    n = len(copies)
    for i in range(n):
        for j in range(i + 1, n):
            shared = set(copies[i]) & set(copies[j])
            for v in shared:
                pi, pj = order_pos[v][i], order_pos[v][j]
                if pi < pj:
                    arcs.add((j, i))
                else:
                    arcs.add((i, j))
    return Digraph.from_arcs(n, arcs)


def _star_orders_oracle(b, origin, f):
    """Backtracking over per-vertex star orders meeting the budget.

    With positions p_v(e) counted from the absorbing end, the out-degree
    of a copy e = uv is p_u(e) + p_v(e), so the bound becomes a rank-sum
    constraint per edge copy.
    """
    n = len(origin)
    incident = {v: [i for i, e in enumerate(origin) if v in e] for v in range(b.n)}
    order_pos = {}
    verts = sorted(range(b.n), key=lambda v: -len(incident[v]))

    def feasible(v, pos):
        for i, p in pos.items():
            u, w = origin[i]
            other = w if v == u else u
            if other in order_pos:
                if p + order_pos[other][i] > f(i) - 1:
                    return False
            else:
                if p > f(i) - 1:
                    return False
        return True

    def place(k):
        if k == len(verts):
            return True
        v = verts[k]
        from itertools import permutations

        for perm in permutations(incident[v]):
            pos = {i: p for p, i in enumerate(perm)}
            if not feasible(v, pos):
                continue
            order_pos[v] = pos
            if place(k + 1):
                return True
            del order_pos[v]
        return False

    if not place(0):
        return None
    return _order_orientation(b, origin, order_pos)


def _irregular_bipartite(rng, left, right):
    """Random bipartite multigraph, multiplicities 1-2, labels shuffled."""
    n = left + right
    records = [(u, v, 1 + (rng.random() < 0.25)) for u in range(left) for v in range(left, n)
               if rng.random() < 0.7]
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph.from_edges(n, [(perm[u], perm[v], m) for u, v, m in records or [(0, left, 1)]])


def _galvin_budget(b, origin):
    degs = b.degrees()
    return ListSizeFn(tuple(max(degs[u], degs[v]) for u, v in origin))


def test_star_order_search_matches_the_unpruned_search(rng):
    # the oracle runs for seconds on about 1 input in 1000; these seeded
    # inputs are not among them
    found = 0
    for _ in range(150):
        b = _irregular_bipartite(rng, rng.randint(2, 3), rng.randint(3, 4))
        _, origin = line_graph(b)
        f = _galvin_budget(b, origin)
        got = kernel._search_star_orders(b, origin, f)
        want = _star_orders_oracle(b, origin, f)
        assert (got is None) == (want is None), b.edges
        if got is not None:
            assert got == want, b.edges
            found += 1
    assert found > 100
    # budgets below Galvin's on some copies leave some inputs without a
    # solution
    none = tried = 0
    while tried < 60:
        b = _irregular_bipartite(rng, 2, 3)
        _, origin = line_graph(b)
        if len(origin) > 9:
            continue  # the oracle exhausts larger inputs slowly
        tried += 1
        f = ListSizeFn(tuple(x - (rng.random() < 0.3) for x in _galvin_budget(b, origin).values))
        got = kernel._search_star_orders(b, origin, f)
        assert got == _star_orders_oracle(b, origin, f), b.edges
        none += got is None
    assert 0 < none < 60


@pytest.mark.parametrize("records", [
    [(0, 1, 2), (0, 4, 1), (0, 5, 1), (0, 6, 2), (2, 4, 2), (2, 5, 2), (2, 6, 1),
     (3, 4, 1), (3, 5, 2), (3, 6, 2)],
    [(0, 1, 1), (0, 3, 2), (0, 4, 1), (0, 6, 2), (1, 2, 1), (1, 5, 2), (2, 3, 2),
     (2, 4, 1), (2, 6, 1), (3, 5, 1), (4, 5, 1), (5, 6, 1)],
])
def test_galvin_star_order_fallback_finishes(records):
    # the unpruned search took seconds on each of these
    b = MultiGraph.from_edges(7, records)
    cert = kernel.galvin_orientation(b)
    assert cert.check()
    assert all(o < k for o, k in zip(cert.digraph.out_degrees(), cert.f.values))


# ---------------------------------------------------------------------------
# the subset-marking is_kernel_perfect against the earlier per-subset search

def _is_kernel_perfect_oracle(d, cap=12):
    """Exhaustive kernel-perfection check.

    Returns (True, None) or (False, first failing induced vertex set),
    scanning induced sets by increasing size then lexicographically.
    """
    if d.n > cap:
        raise ValueError(f"exhaustive check capped at {cap} vertices")
    for size in range(1, d.n + 1):
        for sub in combinations(range(d.n), size):
            if _find_kernel_oracle(d, sub) is None:
                return False, set(sub)
    return True, None


def _random_arcs(rng, edges, both):
    """Each edge one way at random, or both ways with probability `both`."""
    arcs = []
    for u, v in edges:
        r = rng.random()
        arcs += [(u, v), (v, u)] if r < both else [(u, v)] if r < (1 + both) / 2 else [(v, u)]
    return arcs


def _random_digraph(rng, n):
    p = rng.uniform(0.2, 0.8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Digraph.from_arcs(n, _random_arcs(rng, edges, rng.choice((0, 0.15, 0.4))))


def _one_way_odd_cycle_digraph(rng, n):
    """A one-way odd cycle through some of n vertices, other pairs at random."""
    k = rng.choice([k for k in (3, 5, 7, 9) if k <= n])
    ring = rng.sample(range(n), k)
    cycle = {(ring[i], ring[(i + 1) % k]) for i in range(k)}
    p = rng.uniform(0.1, 0.6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in cycle and (v, u) not in cycle and rng.random() < p]
    return Digraph.from_arcs(n, sorted(cycle) + _random_arcs(rng, edges, 0.15))


def _odd_cycle_line_orientation(rng, k):
    """L(C_k plus pendant edges, 9 edges in all at most), labels shuffled,
    oriented at random.

    Some pairs are bidirected; half the time the copies of the cycle
    edges point one way around the cycle, an induced one-way odd cycle.
    """
    extra = rng.randint(0, 9 - k)
    n = k + extra
    perm = list(range(n))
    rng.shuffle(perm)
    ring = [tuple(sorted((perm[i], perm[(i + 1) % k]))) for i in range(k)]
    pendants = [(perm[rng.randrange(k)], perm[k + i]) for i in range(extra)]
    b = MultiGraph.from_edges(n, ring + pendants)
    g, origin = line_graph(b)
    forced = set()
    if rng.random() < 0.5:
        cyc = [origin.index(e) for e in ring]
        forced = {(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
    free = [(u, v) for u, v in g.edge_list() if (u, v) not in forced and (v, u) not in forced]
    return b, Digraph.from_arcs(g.n, sorted(forced) + _random_arcs(rng, free, 0.15)), origin


def _non_bipartite_line_orientation(rng):
    """A random orientation, bidirected pairs included, of L(B) for a
    random multigraph B with an odd cycle and at most 9 edge copies."""
    while True:
        b = random_multigraph(rng, rng.randint(3, 6), rng.randint(3, 7), max_mult=2)
        g, origin = line_graph(b)
        if g.n <= 9 and kernel.bipartition(b) is None:
            return b, Digraph.from_arcs(g.n, _random_arcs(rng, g.edge_list(), 0.2)), origin


def _kernel_perfect_digraph(rng, kind):
    """A digraph with a kernel in every induced subdigraph: an acyclic
    one, a transitive tournament, a bidirected complete graph, or a
    star-order orientation of the line graph of a bipartite multigraph,
    where every clique lies in a star and has that star order's sink
    (Boros-Gurvich)."""
    n = rng.randint(1, 9)
    if kind < 2:
        perm = rng.sample(range(n), n)
        p = rng.uniform(0.2, 0.8) if kind == 0 else 1
        return Digraph.from_arcs(n, [(perm[j], perm[i]) for i in range(n)
                                     for j in range(i + 1, n) if rng.random() < p])
    if kind == 2:
        return Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    while True:
        b = _irregular_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        g, origin = line_graph(b)
        if g.n <= 9:
            break
    order_pos = {}
    for v in range(b.n):
        star = [i for i, e in enumerate(origin) if v in e]
        rng.shuffle(star)
        order_pos[v] = {i: p for p, i in enumerate(star)}
    return _order_orientation(b, origin, order_pos)


def _cycle_below_a_triangle(rng):
    """A one-way 5- or 7-cycle on the lowest labels used and a one-way
    triangle on the three highest, any other labels isolated: the cycle
    fails on a mask numerically below the triangle's, the least failing
    set."""
    k = rng.choice((5, 7))
    n = rng.randint(k + 3, 11)
    labels = sorted(rng.sample(range(n), k + 3))
    return n, labels[:k], labels[k:]


def test_is_kernel_perfect_matches_the_per_subset_search(rng):
    kp = 0
    for i in range(520):
        n = rng.randint(1, 9)
        kind = i % 4
        if kind == 0:
            d = _random_digraph(rng, n)
        elif kind == 1:
            d = _one_way_odd_cycle_digraph(rng, max(n, 3))
        elif kind == 2:
            _, d, _ = _odd_cycle_line_orientation(rng, rng.choice((3, 5, 7, 9)))
        else:
            _, d, _ = _non_bipartite_line_orientation(rng)
        want = _is_kernel_perfect_oracle(d)
        assert kernel.is_kernel_perfect(d) == want, sorted(d.arcs)
        kp += want[0]
    assert 100 < kp < 460
    # the yes answer, which returns before any failing set is built
    for i in range(160):
        d = _kernel_perfect_digraph(rng, i % 4)
        assert kernel.is_kernel_perfect(d) == _is_kernel_perfect_oracle(d) == (True, None), \
            sorted(d.arcs)
    # a least failing set that is not the numerically least failing mask
    for n, ring, tri in [(11, [0, 1, 2, 6, 7], [8, 9, 10])] + [
            _cycle_below_a_triangle(rng) for _ in range(20)]:
        d = Digraph.from_arcs(n, [(c[i - 1], c[i]) for c in (ring, tri) for i in range(len(c))])
        assert _find_kernel_oracle(d, ring) is None
        want = _is_kernel_perfect_oracle(d)
        assert want == (False, set(tri))
        assert kernel.is_kernel_perfect(d) == want, sorted(d.arcs)


# ---------------------------------------------------------------------------
# the line-graph characterization: a star test on bipartite roots (König,
# Boros-Gurvich), the exhaustive check on any other root

def _random_line_orientation(rng, b):
    g, origin = line_graph(b)
    if rng.random() < 0.5:
        arcs = []
        for u, v in g.edge_list():
            r = rng.random()
            arcs += [(u, v)] if r < 0.45 else [(v, u)] if r < 0.9 else [(u, v), (v, u)]
    else:
        # star orders orient every clique transitively; then reverse a
        # few arcs and double a few pairs
        order_pos = {}
        for v in range(b.n):
            star = [i for i, e in enumerate(origin) if v in e]
            rng.shuffle(star)
            order_pos[v] = {i: p for p, i in enumerate(star)}
        arcs = set(_order_orientation(b, origin, order_pos).arcs)
        for u, v in sorted(arcs):
            r = rng.random()
            if r < 0.05:
                arcs.discard((u, v))
                arcs.add((v, u))
            elif r < 0.1:
                arcs.add((v, u))
    return Digraph.from_arcs(g.n, arcs), origin


def test_characterization_on_bipartite_roots_matches_exhaustive(rng):
    checked = kp = 0
    while checked < 300:
        b = _irregular_bipartite(rng, rng.randint(1, 3), rng.randint(2, 4))
        if not 2 <= sum(m for _, _, m in b.edges) <= 10:
            continue
        d, origin = _random_line_orientation(rng, b)
        fast = kernel.kp_line_characterization(d, b, origin=origin)
        slow, _ = kernel.is_kernel_perfect(d)
        assert fast == slow, (b.edges, sorted(d.arcs))
        checked += 1
        kp += slow
    assert 50 < kp < 250


def test_exhaustive_check_runs_only_on_non_bipartite_roots(monkeypatch):
    calls = []
    exhaustive = kernel.is_kernel_perfect
    monkeypatch.setattr(kernel, "is_kernel_perfect",
                        lambda d: calls.append(d.n) or exhaustive(d))
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    cert = kernel.galvin_orientation(b)
    assert cert.check()
    assert calls == []
    c5 = MultiGraph.from_edges(5, cycle_graph(5).edge_list())
    g, origin = line_graph(c5)
    d = Digraph.from_arcs(5, g.edge_list())
    kernel.kp_line_characterization(d, c5, origin=origin)
    assert calls == [5]


def _directed_line_cycle(k):
    """L(C_k) with each copy pointing to the next one around the cycle."""
    c = MultiGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    _, origin = line_graph(c)
    index = {e: i for i, e in enumerate(origin)}
    ring = [index[tuple(sorted((i, (i + 1) % k)))] for i in range(k)]
    d = Digraph.from_arcs(k, [(ring[i], ring[(i + 1) % k]) for i in range(k)])
    return c, d, origin


@pytest.mark.parametrize("k", [5, 7, 9])
def test_directed_line_odd_cycle_is_not_kernel_perfect(k):
    c, d, origin = _directed_line_cycle(k)
    assert not kernel.kp_line_characterization(d, c, origin=origin)
    assert not _is_kernel_perfect_oracle(d)[0]


def test_directed_line_c5_certificate_fails_its_check():
    # every out-degree is 1 = f - 1, so only kernel-perfection can fail
    c, d, origin = _directed_line_cycle(5)
    g, _ = line_graph(c, origin)
    cert = kernel.KPCertificate(g, ListSizeFn.constant(5, 2), d, root=c, origin=origin)
    assert not cert.check()


@pytest.mark.parametrize("key, value", [
    ("root", {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}),
    ("origin", [[0, 2], [0, 3], [1, 2], [1, 3]]),
])
def test_a_certificate_whose_root_is_not_its_graph_fails_its_check(key, value):
    # the same number of edge copies, so the graph has the right size;
    # a root whose line graph is another graph fails, and so does an
    # origin that is not a relabelling of the root's copies
    b = MultiGraph.from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 2)])
    doc = kernel.galvin_orientation(b).to_json()
    good = kernel.KPCertificate.from_json(doc)
    assert good.check()
    parts = {"root": good.root, "origin": good.origin}
    parts[key] = MultiGraph.from_edges(value["n"], value["edges"]) if key == "root" else value
    cert = kernel.KPCertificate(good.graph, good.f, good.digraph, **parts)
    assert not cert.check()
    # read from JSON, the mismatch is malformed input, named by its key
    doc[key] = value
    with pytest.raises(FormatError, match=f"'{key}'"):
        kernel.KPCertificate.from_json(doc)


def test_certificate_json_names_the_route_its_check_takes():
    # a C5 root is not bipartite, so check() runs the exhaustive test
    c, d, origin = _directed_line_cycle(5)
    g, _ = line_graph(c, origin)
    cert = kernel.KPCertificate(g, ListSizeFn.constant(5, 2), d, root=c, origin=origin)
    assert cert.to_json()["verified_by"] == "exhaustive"
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    assert kernel.galvin_orientation(b).to_json()["verified_by"] == "characterization"
    searched = kernel.is_f_KP(cycle_graph(4), ListSizeFn.constant(4, 2))
    assert searched.to_json()["verified_by"] == "exhaustive"


def test_characterization_on_non_bipartite_roots_matches_the_oracle(rng):
    kp = 0
    for i in range(120):
        if i % 2:
            b, d, origin = _odd_cycle_line_orientation(rng, rng.choice((5, 7, 9)))
        else:
            b, d, origin = _non_bipartite_line_orientation(rng)
        want = _is_kernel_perfect_oracle(d)[0]
        assert kernel.kp_line_characterization(d, b, origin=origin) == want, b.edges
        kp += want
    assert 20 < kp < 100


def test_characterization_above_the_cap_raises_on_non_bipartite_roots():
    # a transitive orientation of L(C_13) is kernel-perfect, but the
    # exhaustive check is capped at 12 vertices, so no verdict is given
    c = MultiGraph.from_edges(13, [(i, (i + 1) % 13) for i in range(13)])
    g, origin = line_graph(c)
    d = Digraph.from_arcs(g.n, g.edge_list())
    with pytest.raises(ValueError, match="capped"):
        kernel.kp_line_characterization(d, c, origin=origin)


# ---------------------------------------------------------------------------
# the mask-based find_kernel and bipartition against the earlier scans
# over arc sets and edge records

def _find_kernel_oracle(d, s=None):
    """Kernel of the subdigraph induced on s (default: all vertices).

    Candidates are tried by increasing size, lexicographically within a
    size; the first kernel found is returned, else None.
    """
    if s is None:
        s = range(d.n)
    verts = sorted(set(s))
    sset = set(verts)
    support_adj = {v: set() for v in verts}
    out_adj = {v: set() for v in verts}
    for u, v in d.arcs:
        if u in sset and v in sset:
            support_adj[u].add(v)
            support_adj[v].add(u)
            out_adj[u].add(v)
    for size in range(0, len(verts) + 1):
        for cand in combinations(verts, size):
            kset = set(cand)
            if any(support_adj[u] & kset for u in cand):
                continue  # not independent
            if all(out_adj[v] & kset for v in verts if v not in kset):
                return kset
    return None


def _bipartition_oracle(b):
    """Two-color the support of a multigraph; None if an odd cycle exists."""
    color = [None] * b.n
    for start in range(b.n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for a, c, _ in b.edges:
                if v not in (a, c):
                    continue
                w = c if v == a else a
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    x = [v for v in range(b.n) if color[v] == 0]
    y = [v for v in range(b.n) if color[v] == 1]
    return x, y


def _side_by_side(rng, n_parts, records_of, isolated):
    """Components placed one after another, then `isolated` vertices;
    half the time the labels are shuffled, else each component keeps a
    block of labels in order, so the last one is the latest."""
    n = sum(n_parts) + isolated
    perm = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    records, off = [], 0
    for k, recs in zip(n_parts, records_of):
        records += [(perm[r[0] + off], perm[r[1] + off]) + tuple(r[2:]) for r in recs]
        off += k
    return n, records


def _scattered_digraph(rng):
    """A random digraph (bidirected pairs allowed), then one with a
    one-way odd cycle, then isolated vertices."""
    parts = [_random_digraph(rng, rng.randint(1, 4)),
             _one_way_odd_cycle_digraph(rng, rng.randint(3, 5))]
    n, arcs = _side_by_side(rng, [p.n for p in parts], [p.arcs for p in parts],
                            rng.randint(0, 2))
    return Digraph.from_arcs(n, arcs)


def test_find_kernel_matches_the_set_search(rng):
    outcomes = {True: 0, False: 0}
    for i in range(240):
        kind = i % 3
        if kind == 0:
            d = _random_digraph(rng, rng.randint(1, 8))
        elif kind == 1:
            d = _one_way_odd_cycle_digraph(rng, rng.randint(3, 8))
        else:
            d = _scattered_digraph(rng)
        subsets = [None, [], list(range(d.n))[::-1]]
        subsets += [rng.sample(range(d.n), rng.randint(1, d.n)) for _ in range(3)]
        for s in subsets:
            want = _find_kernel_oracle(d, s)
            assert kernel.find_kernel(d, s) == want, (sorted(d.arcs), s)
            outcomes[want is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 500


# ---------------------------------------------------------------------------
# the branching find_kernel against the search by size it replaced

def _find_kernel_by_size(d, s=None):
    """Kernel of the subdigraph induced on s (default: all vertices).

    Candidates are tried by increasing size, lexicographically within a
    size; the first kernel found is returned, else None.
    """
    verts = sorted(set(s)) if s is not None else range(d.n)
    out, into = d.arc_masks()
    whole = sum(1 << v for v in verts)
    for size in range(0, len(verts) + 1):
        for cand in combinations(verts, size):
            k = near = reach = 0
            for v in cand:
                k |= 1 << v
                near |= out[v] | into[v]
                reach |= into[v]
            # independent, and every other vertex of s has an arc into k
            if not near & k and not whole & ~k & ~reach:
                return set(cand)
    return None


def _kernel_search_digraphs(rng):
    """Digraphs of each kind the branching search meets: random ones
    with bidirected pairs, one-way odd cycles, scattered components,
    undirected graphs (every maximal independent set is a kernel, so
    sizes tie often) and Galvin orientations of bipartite roots."""
    while True:
        yield "random", _random_digraph(rng, rng.randint(1, 10))
        yield "odd cycle", _one_way_odd_cycle_digraph(rng, rng.randint(3, 10))
        yield "scattered", _scattered_digraph(rng)
        n = rng.randint(1, 10)
        p = rng.uniform(0.2, 0.7)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        yield "undirected", Digraph.from_arcs(n, _random_arcs(rng, edges, 1))
        b = _irregular_bipartite(rng, rng.randint(1, 3), rng.randint(2, 4))
        if len(edge_copies(b)) <= 12:
            yield "galvin", kernel.galvin_orientation(b).digraph


def test_find_kernel_matches_the_search_by_size(rng):
    found = {}
    digraphs = _kernel_search_digraphs(rng)
    for _ in range(600):
        kind, d = next(digraphs)
        subsets = [None, [], list(range(d.n))[::-1]]
        subsets += [rng.sample(range(d.n), rng.randint(1, d.n)) for _ in range(3)]
        for s in subsets:
            want = _find_kernel_by_size(d, s)
            assert kernel.find_kernel(d, s) == want, (kind, d.arcs, s)
            found[kind, want is None] = found.get((kind, want is None), 0) + 1
    # every kind has kernels, and the directed kinds also lack some
    assert min(found[kind, False] for kind, _ in found) >= 100, found
    assert min(found[kind, True] for kind in ("random", "odd cycle", "scattered")) >= 20, found


def _odd_cycle_records(rng):
    """An odd cycle, some copies parallel, with a chord now and then."""
    k = rng.choice((3, 5, 7))
    records = [(i, (i + 1) % k, rng.randint(1, 2)) for i in range(k)]
    if k > 3 and rng.random() < 0.3:
        records.append((0, 2, 1))
    return k, records


def _scattered_multigraph(rng):
    """Bipartite components with parallel copies, then (most of the
    time) an odd cycle as the last component, then isolated vertices."""
    parts = [_irregular_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(rng.randint(1, 2))]
    sizes, records = [p.n for p in parts], [p.edges for p in parts]
    if rng.random() < 0.7:
        k, cycle = _odd_cycle_records(rng)
        sizes.append(k)
        records.append(cycle)
    n, records = _side_by_side(rng, sizes, records, rng.randint(0, 2))
    return MultiGraph.from_edges(n, records)


def test_bipartition_matches_the_record_scan(rng):
    bipartite = 0
    for i in range(400):
        if i % 2:
            b = random_multigraph(rng, rng.randint(1, 8), rng.randint(0, 12), max_mult=2)
        else:
            b = _scattered_multigraph(rng)
        want = _bipartition_oracle(b)
        assert kernel.bipartition(b) == want, b.edges
        bipartite += want is not None
    assert 100 < bipartite < 300


def test_the_star_order_search_is_capped_below_the_recursion_limit():
    # one level per root vertex, and one per copy at a vertex
    cap = kernel.STAR_ORDER_DEPTH
    for b in (MultiGraph.from_edges(cap + 1, [(0, 1, 1)]),
              MultiGraph.from_edges(2, [(0, 1, cap + 1)])):
        _, origin = line_graph(b)
        with pytest.raises(ValueError, match=f"capped at {cap}"):
            kernel._search_star_orders(b, origin, ListSizeFn.constant(len(origin), cap + 1))
    # at the cap the search runs, cap levels deep
    b = MultiGraph.from_edges(cap, [(0, 1, 1)])
    _, origin = line_graph(b)
    assert kernel._search_star_orders(b, origin, ListSizeFn.constant(1, 1)) is not None


# ---------------------------------------------------------------------------
# the colour-table bipartite_edge_coloring against the dict-based
# insertion it replaced

def _edge_coloring_oracle(b, chains=None):
    """Proper edge coloring of a bipartite multigraph with Delta colors;
    the length of each swapped chain is appended to `chains`."""
    copies = edge_copies(b)
    delta = max(b.degrees()) if b.edges else 0
    used = [dict() for _ in range(b.n)]  # vertex -> color -> copy index
    colors = [None] * len(copies)

    def assign(idx, col):
        u, v = copies[idx]
        colors[idx] = col
        used[u][col] = idx
        used[v][col] = idx

    def unassign(idx):
        u, v = copies[idx]
        col = colors[idx]
        del used[u][col]
        del used[v][col]
        colors[idx] = None

    for idx, (u, v) in enumerate(copies):
        free_u = next(c for c in range(1, delta + 1) if c not in used[u])
        free_v = next(c for c in range(1, delta + 1) if c not in used[v])
        if free_u == free_v:
            assign(idx, free_u)
            continue
        a, bcol = free_u, free_v
        chain = []
        w, col = v, a
        while col in used[w]:
            j = used[w][col]
            chain.append(j)
            p, q = copies[j]
            w = q if w == p else p
            col = bcol if col == a else a
        if chains is not None:
            chains.append(len(chain))
        swapped = [bcol if colors[j] == a else a for j in chain]
        for j in chain:
            unassign(j)
        for j, new in zip(chain, swapped):
            assign(j, new)
        assign(idx, a)
    return colors


def _chain_bipartite(rng):
    """A path or an even cycle through 4-12 vertices, some edges doubled
    or tripled, with pendant edges hung on so the degrees are irregular;
    the labels are shuffled, so the copies go in out of path order and
    an insert meets two differently coloured halves of the path."""
    k = rng.randint(4, 12)
    records = [(i, i + 1, rng.choice((1, 1, 1, 2, 3))) for i in range(k - 1)]
    if k % 2 == 0 and rng.random() < 0.5:
        records.append((0, k - 1, rng.randint(1, 2)))
    n = k
    for _ in range(rng.randint(0, 3)):
        records.append((rng.randrange(k), n, rng.randint(1, 3)))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph.from_edges(n, [(perm[u], perm[v], m) for u, v, m in records])


def test_edge_coloring_matches_the_dict_insertion(rng):
    chains = []
    for i in range(1500):
        if i % 2:
            left, right = rng.randint(1, 6), rng.randint(1, 6)
            b = MultiGraph.from_edges(left + right, [
                (u, v, rng.randint(1, 3)) for u in range(left)
                for v in range(left, left + right) if rng.random() < 0.5])
        else:
            b = _chain_bipartite(rng)
        colors = kernel.bipartite_edge_coloring(b)
        assert colors == _edge_coloring_oracle(b, chains), b.edges
    # the inserts swap chains, long ones among them
    assert sum(k > 0 for k in chains) > 2000 and sum(k >= 5 for k in chains) > 100


def _is_f_KP_oracle(g, f, allow_doubling=False):
    # the search before it refused one-way triangles: every complete
    # orientation within the budget goes to `is_kernel_perfect`
    if g.n > kernel.F_KP_VERTICES:
        raise ValueError(f"search capped at {kernel.F_KP_VERTICES} vertices")
    budget = [f(v) for v in range(g.n)]
    if any(k < 1 for k in budget) or degree_route(g.adjacency_masks(), budget) is False:
        return None
    edges = g.edge_list()
    limit = [k - 1 for k in budget]
    outs = [0] * g.n
    chosen = []

    def place(k):
        if k == len(edges):
            d = Digraph.from_arcs(g.n, [a for arcs in chosen for a in arcs])
            ok, _ = kernel.is_kernel_perfect(d)
            return ok
        u, v = edges[k]
        options = [((u, v),), ((v, u),)]
        if allow_doubling:
            options.append(((u, v), (v, u)))
        for arcs in options:
            feasible = True
            for a, _ in arcs:
                outs[a] += 1
                if outs[a] > limit[a]:
                    feasible = False
            if feasible:
                chosen.append(arcs)
                if place(k + 1):
                    return True
                chosen.pop()
            for a, _ in arcs:
                outs[a] -= 1
        return False

    if not place(0):
        return None
    return kernel.KPCertificate(
        g, f, Digraph.from_arcs(g.n, [a for group in chosen for a in group]))


def test_is_f_KP_matches_the_search_without_the_triangle_cut(rng):
    # budgets d or d - 1 on 3-6 vertices, 30% of them with doubling;
    # the same first certificate, or None on both
    found = doubled = 0
    for i in range(2400):
        n = rng.randint(3, 6)
        g = random_simple_graph(rng, n, rng.uniform(0.2, 0.7))
        f = ListSizeFn(tuple(max(1, d - rng.randint(0, 1)) for d in g.degrees()))
        double = i % 10 < 3
        got, want = kernel.is_f_KP(g, f, double), _is_f_KP_oracle(g, f, double)
        assert (got and got.to_json()) == (want and want.to_json()), (g.edge_list(), f.values)
        found += got is not None
        doubled += bool(got and got.supergraph_edges)
    assert found > 150 and doubled > 15


def test_is_f_KP_decides_a_dense_8_vertex_graph_at_once():
    # not a Gallai tree, so the degree route says yes; without the cut
    # the search had no answer after 300 s
    g = SimpleGraph.from_edges(8, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 4), (1, 5),
        (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 7), (4, 5), (4, 6),
        (4, 7), (5, 6), (5, 7), (6, 7)])
    f = ListSizeFn(tuple(max(d, 1) for d in g.degrees()))
    start = time.perf_counter()
    assert kernel.is_f_KP(g, f) is None
    assert time.perf_counter() - start < 2
