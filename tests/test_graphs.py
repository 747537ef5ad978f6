from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcert.graphs import (
    Digraph, FormatError, ListSizeFn, MultiGraph, SimpleGraph,
    complete_bipartite, complete_graph, complete_multipartite_2t,
    cycle_graph, digraph_from_json, digraph_to_json, emit_edge_list,
    emit_graph6, join, line_graph, parse_edge_list, parse_graph6,
    path_graph,
)
from conftest import (
    path_power, random_interval_graph, random_multigraph, random_simple_graph, shuffled,
)


def test_simple_graph_basics():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degrees() == [2, 2, 2, 2]
    assert sorted(g.neighbors(0)) == [1, 3]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert not g.is_clique([0, 1, 2])
    assert g.is_clique([0, 1])


def test_simple_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 3)])


def test_complement_and_induced():
    g = cycle_graph(5)
    c = g.complement()
    assert len(c.edges) == 10 - 5
    sub, order = g.induced({1, 2, 3})
    assert sub.n == 3 and len(sub.edges) == 2
    assert list(order) == [1, 2, 3]


# ---------------------------------------------------------------------------
# the clique enumerator against the earlier scan over all vertex subsets

def _cliques_oracle(g):
    cliques = []
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            if g.is_clique(vs):
                cliques.append(frozenset(vs))
    return cliques


def test_cliques_match_the_subset_scan(rng):
    graphs = [SimpleGraph.from_edges(0, []), complete_graph(6), cycle_graph(7)]
    for n in range(1, 10):
        for k in (1, 2, 3):
            graphs.append(shuffled(rng, n, path_power(n, k)))
        graphs.append(random_interval_graph(rng, n))
        graphs.append(random_simple_graph(rng, n, rng.uniform(0.2, 0.9)))
    for _ in range(60):
        graphs.append(random_simple_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.95)))
    for g in graphs:
        want = [tuple(sorted(c)) for c in _cliques_oracle(g)]
        assert g.cliques() == want, g.edge_list()


# ---------------------------------------------------------------------------
# the stored neighbour masks against the earlier edge scans

def _neighbors_oracle(g, v):
    return {w for e in g.edges if v in e for w in e if w != v}


def _adjacency_masks_oracle(g):
    adj = [0] * g.n
    for e in g.edges:
        u, v = tuple(e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _degree_oracle(g, v):
    return sum(1 for e in g.edges if v in e)


def _degrees_oracle(g):
    d = [0] * g.n
    for e in g.edges:
        for v in e:
            d[v] += 1
    return d


def _induced_oracle(g, vertices):
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    edges = [
        (index[u], index[v])
        for u, v in g.edge_list()
        if u in index and v in index
    ]
    return SimpleGraph.from_edges(len(order), edges), order


def test_mask_reads_match_the_edge_scans(rng):
    graphs = [SimpleGraph.from_edges(0, []), SimpleGraph.from_edges(3, []),
              complete_graph(6), cycle_graph(7), line_graph(random_multigraph(rng, 5, 7))[0]]
    for n in range(1, 10):
        graphs.append(shuffled(rng, n, path_power(n, 2)))
        graphs.append(random_simple_graph(rng, n, rng.uniform(0.1, 0.9)))
    for g in graphs:
        assert list(g.adjacency_masks()) == _adjacency_masks_oracle(g), g.edge_list()
        assert g.degrees() == _degrees_oracle(g)
        for v in range(g.n):
            assert g.neighbors(v) == _neighbors_oracle(g, v)
            assert g.degree(v) == _degree_oracle(g, v)
        for _ in range(10):
            vs = rng.sample(range(g.n), rng.randint(0, g.n))
            assert g.induced(vs) == _induced_oracle(g, vs)
            assert g.induced(set(vs)) == _induced_oracle(g, vs)


def test_degrees_is_a_fresh_list():
    # callers count the list down in place
    g = cycle_graph(4)
    g.degrees()[0] = 9
    assert g.degrees() == [2, 2, 2, 2]


def test_induced_rejects_vertices_outside_the_graph():
    g = path_graph(3)
    for vs in ({1, 2, 9}, {1, 2, 3}, {1, 2, -5}, [-1]):
        with pytest.raises(ValueError, match="out of range"):
            g.induced(vs)


def test_stored_masks_leave_equality_and_hashing_alone():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    read = SimpleGraph.from_edges(4, edges)
    fresh = SimpleGraph.from_edges(4, reversed(edges))
    masks = read.adjacency_masks()
    assert read.adjacency_masks() is masks
    assert "_adj" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert {read: 1}[fresh] == 1


def test_multigraph_basics():
    h = MultiGraph.from_edges(3, [(0, 1, 2), (1, 2, 1), (0, 1, 1)])
    assert h.multiplicity(0, 1) == 3
    assert h.degrees() == [3, 4, 1]
    assert h.max_multiplicity() == 3
    assert h.edge_count() == 4
    assert h.support().edge_list() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        MultiGraph.from_edges(3, [(1, 1, 1)])


def test_digraph_basics():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert d.out_degrees() == [1, 1, 1]
    assert not d.is_bidirected(0, 1)
    d2 = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert d2.is_bidirected(0, 1)
    assert d2.support().edge_list() == [(0, 1)]


def test_list_size_fn():
    g = cycle_graph(4)
    f = ListSizeFn.constant(4, 3)
    assert [f(v) for v in range(4)] == [3, 3, 3, 3]
    f2 = ListSizeFn.degree_minus_one_on_high(g, low_set=set())
    assert [f2(v) for v in range(4)] == [1, 1, 1, 1]
    f3 = ListSizeFn.degree_minus_one_on_high(g, low_set={0, 1, 2, 3})
    assert [f3(v) for v in range(4)] == [2, 2, 2, 2]


def test_generators():
    assert len(complete_graph(5).edges) == 10
    assert len(complete_bipartite(3, 4).edges) == 12
    assert len(path_graph(4).edges) == 3
    k2t = complete_multipartite_2t(3)
    assert k2t.n == 6
    assert len(k2t.edges) == 15 - 3
    for i in range(3):
        assert not k2t.has_edge(2 * i, 2 * i + 1)
    j = join(complete_graph(2), cycle_graph(4))
    assert j.n == 6 and len(j.edges) == 1 + 4 + 8


def test_line_graph_degree_formula(rng):
    # the line-graph vertex for a copy of edge uv has degree
    # d(u) + d(v) - mu(uv) - 1 in the line graph
    for _ in range(20):
        h = random_multigraph(rng, rng.randint(2, 6), rng.randint(1, 6))
        g, origin = line_graph(h)
        degs = h.degrees()
        for i, (u, v) in enumerate(origin):
            assert g.degree(i) == degs[u] + degs[v] - h.multiplicity(u, v) - 1


# ---------------------------------------------------------------------------
# the star-by-star line-graph builder against the earlier all-pairs scans

def _line_graph_oracle(h):
    """Line graph of a multigraph, plus the map vertex -> root edge.

    Each copy of a multi-edge becomes its own vertex.  Two line-graph
    vertices are adjacent iff the corresponding edge copies share an
    endpoint (parallel copies share both).
    """
    origin = []
    for a, b, m in h.edges:
        origin.extend((a, b) for _ in range(m))
    n = len(origin)
    edges = []
    for i, j in combinations(range(n), 2):
        if set(origin[i]) & set(origin[j]):
            edges.append((i, j))
    return SimpleGraph.from_edges(n, edges), tuple(origin)


def _line_graph_from_origin(root, origin):
    """Line graph of `root` with vertices in the order given by origin.

    Raises when origin is not a relabeling of the root's edge copies.
    """
    from itertools import combinations as _comb

    from colorcert.graphs import SimpleGraph

    copies = []
    for a, b, m in root.edges:
        copies.extend([(a, b)] * m)
    wanted = sorted(tuple(sorted(e)) for e in origin)
    if sorted(copies) != wanted:
        raise ValueError("origin does not match the root's edge copies")
    edges = [
        (i, j)
        for i, j in _comb(range(len(origin)), 2)
        if set(origin[i]) & set(origin[j])
    ]
    return SimpleGraph.from_edges(len(origin), edges)


def test_line_graph_matches_the_all_pairs_scans(rng):
    for _ in range(200):
        n = rng.randint(1, 7)
        h = random_multigraph(rng, n, rng.randint(0, n * (n - 1) // 2), max_mult=3)
        got = line_graph(h)
        assert got == _line_graph_oracle(h), h.edges
        # a shuffled relabelling, some copies written endpoint-reversed
        origin = [(b, a) if rng.random() < 0.3 else (a, b) for a, b in got[1]]
        rng.shuffle(origin)
        g, back = line_graph(h, origin)
        assert g == _line_graph_from_origin(h, origin), h.edges
        assert back == tuple(origin)


def test_line_graph_rejects_an_origin_off_the_copies():
    h = MultiGraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)])
    for origin in (
        [(0, 1), (1, 2), (2, 3)],  # a parallel copy missing
        [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3)],  # one copy too many
        [(0, 1), (0, 1), (1, 2), (1, 3)],  # an edge not in the root
        [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3)],
    ):
        with pytest.raises(ValueError, match="origin does not match"):
            line_graph(h, origin)
        with pytest.raises(ValueError, match="origin does not match"):
            _line_graph_from_origin(h, origin)


def test_line_graph_matches_networkx():
    import networkx as nx

    h = MultiGraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                  (3, 4, 1), (4, 0, 1), (0, 2, 1)])
    g, origin = line_graph(h)
    nxg = nx.line_graph(nx.Graph([(u, v) for u, v, _ in h.edges]))
    assert g.n == nxg.number_of_nodes()
    assert len(g.edges) == nxg.number_of_edges()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.data())
def test_graph6_roundtrip(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = SimpleGraph.from_edges(n, sorted(chosen))
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_known_values():
    # 5-cycle in standard encoding (agrees with networkx)
    import networkx as nx

    word = nx.to_graph6_bytes(nx.cycle_graph(5), header=False).decode().strip()
    assert emit_graph6(cycle_graph(5)) == word
    assert parse_graph6(word) == cycle_graph(5)
    assert parse_graph6(">>graph6<<" + word) == cycle_graph(5)


def test_graph6_errors_carry_offsets():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError) as err:
        parse_graph6("D" + chr(30))  # byte below the printable range
    assert err.value.offset is not None
    with pytest.raises(FormatError):
        parse_graph6("DhcA")  # trailing garbage


def test_edge_list_roundtrip(rng):
    for _ in range(20):
        h = random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 8))
        assert parse_edge_list(emit_edge_list(h)) == h


def test_edge_list_errors():
    with pytest.raises(FormatError):
        parse_edge_list("not a header")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 5")


def test_digraph_json_roundtrip():
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3)])
    assert digraph_from_json(digraph_to_json(d)) == d
