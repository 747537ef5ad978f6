from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcert.graphs import (
    Digraph, FormatError, ListSizeFn, MultiGraph, SimpleGraph, blocks,
    complete_bipartite, complete_graph, complete_multipartite_2t,
    cycle_graph, degree_route, digraph_from_json, digraph_to_json, emit_edge_list,
    emit_graph6, empty_graph, join, line_graph, parse_edge_list, parse_graph6,
    path_graph,
)
from conftest import (
    neighbors, path_power, random_interval_graph, random_multigraph, random_simple_graph,
    shuffled,
)


def test_simple_graph_basics():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degrees() == [2, 2, 2, 2]
    assert sorted(neighbors(g, 0)) == [1, 3]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert not g.is_clique([0, 1, 2])
    assert g.is_clique([0, 1])


def test_simple_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("build", [SimpleGraph.from_edges, MultiGraph.from_edges, Digraph.from_arcs])
def test_constructors_reject_a_negative_count_and_ids_that_are_not_ints(build):
    with pytest.raises(ValueError, match="vertex count -1"):
        build(-1, [])
    with pytest.raises(ValueError, match="vertex count '2'"):
        build("2", [])
    for bad in ("a", 1.0, True, None):
        with pytest.raises(ValueError, match="is not an int"):
            build(2, [(bad, 1)])
        with pytest.raises(ValueError, match="is not an int"):
            build(2, [(0, bad)])
    assert build(0, []).n == 0


def test_complement_and_induced():
    g = cycle_graph(5)
    c = g.complement()
    assert len(c.edge_list()) == 10 - 5
    sub, order = g.induced({1, 2, 3})
    assert sub.n == 3 and len(sub.edge_list()) == 2
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


def _cliques_recursive(g):
    """The depth-first enumeration that the level-by-level one replaced."""
    adj = g.adjacency_masks()
    found = []

    def extend(clique, cand):
        # cand: the common neighbours of `clique` above its last vertex
        found.append(clique)
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            extend(clique + (v,), cand & adj[v])

    # the search meets cliques in lexicographic order, which a stable
    # sort by size keeps within each size
    extend((), (1 << g.n) - 1)
    found.sort(key=len)
    return found[1:]


def test_cliques_match_the_recursive_enumeration(rng):
    graphs = [SimpleGraph.from_edges(0, []), complete_graph(13), empty_graph(13)]
    while len(graphs) < 420:
        n = rng.randint(1, 13)
        g = random_simple_graph(rng, n, rng.uniform(0.1, 0.95))
        graphs += [g, shuffled(rng, n, g.edge_list())]
    for g in graphs:
        assert g.cliques() == _cliques_recursive(g), g.edge_list()


# ---------------------------------------------------------------------------
# the stored neighbour masks against the earlier edge scans

def _neighbors_oracle(g, v):
    return {w for e in g.edge_list() if v in e for w in e if w != v}


def _adjacency_masks_oracle(g):
    adj = [0] * g.n
    for e in g.edge_list():
        u, v = tuple(e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _degree_oracle(g, v):
    return sum(1 for e in g.edge_list() if v in e)


def _degrees_oracle(g):
    d = [0] * g.n
    for e in g.edge_list():
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
            assert neighbors(g, v) == _neighbors_oracle(g, v)
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


# ---------------------------------------------------------------------------
# the neighbour masks are the stored form: equality and hashing on them
# agree with equality on the edge sets, whichever builder made the graph

@st.composite
def _edge_sets(draw, max_n=7):
    """(n, set of 2-element frozensets) for a random graph."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, frozenset(map(frozenset, chosen))


def _from_pairs(rnd, n, edges):
    """from_edges on the edge set written in a random order, each pair
    either way round and some of them repeated."""
    pairs = [tuple(e)[::rnd.choice((1, -1))] for e in edges]
    pairs += rnd.choices(pairs, k=rnd.randint(0, len(pairs))) if pairs else []
    rnd.shuffle(pairs)
    return SimpleGraph.from_edges(n, pairs)


def _assert_same_relation(g1, key1, g2, key2):
    assert (g1 == g2) == (key1 == key2)
    if key1 == key2:
        assert hash(g1) == hash(g2)


@settings(max_examples=80, deadline=None)
@given(_edge_sets(), _edge_sets(), st.randoms(use_true_random=False))
def test_from_edges_equality_and_hashing_follow_the_edge_set(a, b, rnd):
    ga, again, gb = _from_pairs(rnd, *a), _from_pairs(rnd, *a), _from_pairs(rnd, *b)
    _assert_same_relation(ga, a, again, a)
    _assert_same_relation(ga, a, gb, b)
    n, edges = a
    assert {frozenset(e) for e in ga.edge_list()} == edges
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert ga.has_edge(u, v) == (frozenset((u, v)) in edges)


@settings(max_examples=80, deadline=None)
@given(_edge_sets(), st.randoms(use_true_random=False))
def test_complement_and_induced_equal_the_graphs_of_their_edge_sets(a, rnd):
    n, edges = a
    g = _from_pairs(rnd, n, edges)
    others = frozenset(map(frozenset, combinations(range(n), 2))) - edges
    _assert_same_relation(g.complement(), (n, others), _from_pairs(rnd, n, others), (n, others))
    assert g.complement().complement() == g
    vs = rnd.sample(range(n), rnd.randint(0, n))
    sub, order = g.induced(vs)
    inside = frozenset(frozenset((i, j)) for i, j in combinations(range(len(order)), 2)
                       if frozenset((order[i], order[j])) in edges)
    want = (len(order), inside)
    _assert_same_relation(sub, want, _from_pairs(rnd, *want), want)


@settings(max_examples=80, deadline=None)
@given(_edge_sets(), st.randoms(use_true_random=False))
def test_supports_equal_the_graph_of_their_edge_set(a, rnd):
    n, edges = a
    g = _from_pairs(rnd, n, edges)
    h = MultiGraph.from_edges(n, [tuple(e) + (rnd.randint(1, 3),) for e in edges])
    arcs = []
    for e in edges:
        u, v = tuple(e)
        arcs += rnd.choice(([(u, v)], [(v, u)], [(u, v), (v, u)]))
    d = Digraph.from_arcs(n, arcs)
    _assert_same_relation(h.support(), a, g, a)
    _assert_same_relation(d.support(), a, g, a)


@st.composite
def _arc_sets(draw, max_n=7):
    """(n, frozenset of (u, v) arcs) for a random digraph; some pairs
    get both arcs."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, frozenset(draw(st.sets(st.sampled_from(pairs))) if pairs else ())


def _from_arcs(rnd, n, arcs):
    """from_arcs on the arc set written in a random order, some arcs
    repeated."""
    listed = list(arcs)
    listed += rnd.choices(listed, k=rnd.randint(0, len(listed))) if listed else []
    rnd.shuffle(listed)
    return Digraph.from_arcs(n, listed)


@settings(max_examples=80, deadline=None)
@given(_arc_sets(), _arc_sets(), st.randoms(use_true_random=False))
def test_from_arcs_equality_and_hashing_follow_the_arc_set(a, b, rnd):
    da, again, db = _from_arcs(rnd, *a), _from_arcs(rnd, *a), _from_arcs(rnd, *b)
    _assert_same_relation(da, a, again, a)
    _assert_same_relation(da, a, db, b)
    n, arcs = a
    # ascending, and read back into the same digraph
    assert da.arcs == sorted(arcs)
    assert Digraph.from_arcs(n, da.arcs) == da
    assert da.doubled_pairs() == [(u, v) for u, v in sorted(arcs) if u < v and (v, u) in arcs]


@settings(max_examples=60, deadline=None)
@given(_edge_sets(max_n=5), st.randoms(use_true_random=False))
def test_line_graphs_equal_the_graphs_of_their_edge_sets(a, rnd):
    n, edges = a
    h = MultiGraph.from_edges(n, [tuple(e) + (rnd.randint(1, 2),) for e in edges])
    g, origin = line_graph(h)
    relabelled = list(origin)
    rnd.shuffle(relabelled)
    for got, copies in ((g, origin), (line_graph(h, relabelled)[0], relabelled)):
        meet = frozenset(frozenset((i, j)) for i, j in combinations(range(len(copies)), 2)
                         if set(copies[i]) & set(copies[j]))
        want = (len(copies), meet)
        _assert_same_relation(got, want, _from_pairs(rnd, *want), want)


def test_has_edge_is_false_off_the_vertex_range_and_on_a_loop():
    # vertex 1 is adjacent to 0, so reading masks[-1] would say yes
    g = path_graph(2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    for u, v in ((-1, 0), (0, -1), (-2, 1), (2, 0), (0, 2), (1, 5), (0, 0), (1, 1)):
        assert not g.has_edge(u, v)


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
    assert d.doubled_pairs() == []
    d2 = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert d2.doubled_pairs() == [(0, 1)]
    assert d2.support().edge_list() == [(0, 1)]
    # the masks are the stored tuples
    d3 = Digraph.from_arcs(3, [(0, 1), (1, 0), (2, 1)])
    out, into = d3.arc_masks()
    assert d3.arc_masks()[0] is out and d3.arc_masks()[1] is into
    assert (out, into) == ((0b010, 0b001, 0b010), (0b010, 0b101, 0b000))
    for n in (0, 1):
        empty = Digraph.from_arcs(n, [])
        assert empty.arcs == [] and empty.doubled_pairs() == []
        assert empty.arc_masks() == ((0,) * n, (0,) * n) and empty != Digraph.from_arcs(n + 1, [])


def test_list_size_fn():
    g = cycle_graph(4)
    f = ListSizeFn.constant(4, 3)
    assert [f(v) for v in range(4)] == [3, 3, 3, 3]
    f2 = ListSizeFn.degree_minus_one_on_high(g, low_set=set())
    assert [f2(v) for v in range(4)] == [1, 1, 1, 1]
    f3 = ListSizeFn.degree_minus_one_on_high(g, low_set={0, 1, 2, 3})
    assert [f3(v) for v in range(4)] == [2, 2, 2, 2]


def test_generators():
    assert len(complete_graph(5).edge_list()) == 10
    assert len(complete_bipartite(3, 4).edge_list()) == 12
    assert len(path_graph(4).edge_list()) == 3
    k2t = complete_multipartite_2t(3)
    assert k2t.n == 6
    assert len(k2t.edge_list()) == 15 - 3
    for i in range(3):
        assert not k2t.has_edge(2 * i, 2 * i + 1)
    j = join(complete_graph(2), cycle_graph(4))
    assert j.n == 6 and len(j.edge_list()) == 1 + 4 + 8


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
    assert len(g.edge_list()) == nxg.number_of_edges()


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


@pytest.mark.parametrize("n", [62, 63, 64, 70, 200, 666])
def test_graph6_roundtrip_past_one_header_byte(n, rng):
    # above 62 vertices the header is "~" and three bytes of six bits;
    # 666 is L(K_37), a line graph at the paper's scale
    import networkx as nx

    if n == 666:
        g, _ = line_graph(MultiGraph.from_edges(37, complete_graph(37).edge_list()))
    else:
        g = random_simple_graph(rng, n, 0.3)
    word = emit_graph6(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edge_list())
    assert word == nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert parse_graph6(word) == g
    assert parse_graph6(word.encode()) == g


@pytest.mark.parametrize("word, message, offset", [
    ("~", "truncated graph6 header", 1),
    ("~?", "truncated graph6 header", 2),
    ("~~???????", "beyond 258047 vertices unsupported", 1),
    ("~?" + chr(30) + "?", "out-of-range byte 30", 2),
])
def test_graph6_long_header_errors(word, message, offset):
    with pytest.raises(FormatError, match=message) as err:
        parse_graph6(word)
    assert err.value.offset == offset


def _parse_graph6_oracle(text):
    # the byte-by-byte decoder that `parse_graph6` replaced: three range
    # checks and one bit list
    if isinstance(text, str):
        data = text.strip().encode("ascii", errors="replace")
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise FormatError("empty graph6 word", 0)
    pos = 0
    if data[0] == 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 header", len(data))
        if data[1] == 126:
            raise FormatError("graph6 words beyond 258047 vertices unsupported", 1)
        n = 0
        for i in range(1, 4):
            b = data[i]
            if not (63 <= b <= 126):
                raise FormatError(f"out-of-range byte {b}", i)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        b = data[0]
        if not (63 <= b <= 126):
            raise FormatError(f"out-of-range byte {b}", 0)
        n = b - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise FormatError(
            f"graph6 word too short: need {nbytes} data bytes, got {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise FormatError("trailing garbage after graph6 word", pos + nbytes)
    bits = []
    for i in range(nbytes):
        b = data[pos + i]
        if not (63 <= b <= 126):
            raise FormatError(f"out-of-range byte {b}", pos + i)
        x = b - 63
        bits.extend((x >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits", pos + nbytes - 1)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return SimpleGraph.from_edges(n, edges)


def _decoded(parse, word):
    try:
        return parse(word)
    except FormatError as exc:
        return type(exc), str(exc), exc.offset


def test_graph6_decoding_matches_the_byte_by_byte_decoder(rng):
    # the word of a random graph (and of the empty and the complete graph
    # below 10 vertices) with each byte replaced by 0x1e, '?', '~' or
    # 0x7f, or dropped, or one of those appended: the same graph, or the
    # same error and offset
    for n in [*range(10), 62, 63, 64]:
        small = (empty_graph(n), complete_graph(n)) if n < 10 else ()
        for g in (*small, random_simple_graph(rng, n, 0.4)):
            word = emit_graph6(g).encode()
            words = [word, word[:-1], *(word + bytes([c]) for c in b"\x1e?~\x7f")]
            for i in range(len(word)):
                words.append(word[:i] + word[i + 1:])
                words.extend(word[:i] + bytes([c]) + word[i + 1:] for c in b"\x1e?~\x7f")
            for w in words:
                assert _decoded(parse_graph6, w) == _decoded(_parse_graph6_oracle, w)


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


# ---------------------------------------------------------------------------
# the certificate core's fit check against a brute-force reading

@settings(max_examples=150, deadline=None)
@given(_edge_sets(), st.data())
def test_fits_matches_a_brute_force_reading(graph, data):
    from colorcert.graphs import OrientationCertificate

    n, edges = graph
    if data.draw(st.booleans(), label="orient this graph"):
        # each edge one way, the other way or both
        ways = [data.draw(st.sampled_from([(0,), (1,), (0, 1)])) for _ in edges]
        arcs = {(tuple(e)[w], tuple(e)[1 - w]) for e, way in zip(sorted(edges, key=sorted), ways)
                for w in way}
        dn = n
    else:
        # an orientation of another graph, mostly on the same vertex count
        dn = data.draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)]))
        pairs = [(u, v) for u in range(dn) for v in range(dn) if u != v]
        arcs = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    outs = [sum(1 for u, _ in arcs if u == v) for v in range(max(n, dn))]
    # f mostly of the right length, else one value short or long; each
    # value the out-degree plus 1 (tight) or 2, and perhaps one value
    # equal to the out-degree
    size = data.draw(st.sampled_from([n, n, max(n - 1, 0), n + 1]))
    f = [outs[v] + data.draw(st.integers(1, 2)) if v < len(outs) else 1 for v in range(size)]
    if f and data.draw(st.booleans(), label="one vertex over"):
        v = data.draw(st.integers(0, size - 1))
        f[v] = outs[v] if v < len(outs) else 0
    want = (dn == n and {frozenset(a) for a in arcs} == edges and len(f) == n
            and all(outs[v] < f[v] for v in range(n)))
    cert = OrientationCertificate(SimpleGraph.from_edges(n, map(tuple, edges)), ListSizeFn(tuple(f)),
                                  Digraph.from_arcs(dn, arcs))
    assert cert.fits() == want


# ---------------------------------------------------------------------------
# blocks and the degree route

def _connected(masks, verts):
    """Whether the graph on the vertex mask verts is connected (the
    empty graph is)."""
    if not verts:
        return True
    seen = verts & -verts
    while True:
        grown = seen
        for v in range(len(masks)):
            if seen >> v & 1:
                grown |= masks[v] & verts
        if grown == seen:
            return seen == verts
        seen = grown


def _blocks_by_deletion(masks, verts):
    """The blocks on verts by brute force: the inclusion-maximal vertex
    sets that induce a connected graph which no deletion of one vertex
    disconnects."""
    sets = [s for s in range(1, verts + 1) if s & verts == s and _connected(masks, s)
            and all(_connected(masks, s & ~(1 << v)) for v in range(len(masks)) if s >> v & 1)]
    return sorted(s for s in sets if not any(t != s and t & s == s for t in sets))


@settings(max_examples=200, deadline=None)
@given(_edge_sets(max_n=8), st.data())
def test_blocks_match_the_deletion_search(graph, data):
    n, edges = graph
    g = SimpleGraph.from_edges(n, map(tuple, edges))
    verts = data.draw(st.integers(0, (1 << n) - 1), label="vertex mask")
    want = _blocks_by_deletion(g.adjacency_masks(), verts)
    assert sorted(blocks(g.adjacency_masks(), verts)) == want
    # relabelled, the blocks follow the labels
    perm = data.draw(st.permutations(range(n)), label="relabelling")
    h = SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in map(tuple, edges)])
    moved = sum(1 << perm[v] for v in range(n) if verts >> v & 1)
    assert sorted(blocks(h.adjacency_masks(), moved)) == sorted(
        sum(1 << perm[v] for v in range(n) if b >> v & 1) for b in want)


def test_blocks_of_classics():
    path = path_graph(3000)
    # one block per edge, found without the interpreter's recursion
    assert sorted(blocks(path.adjacency_masks(), (1 << 3000) - 1)) == sorted(
        3 << v for v in range(2999))
    # two triangles sharing vertex 2, plus an isolated vertex
    bowtie = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert sorted(blocks(bowtie.adjacency_masks(), 63)) == [0b000111, 0b011100, 0b100000]
    assert blocks(bowtie.adjacency_masks(), 0) == []
    assert blocks(cycle_graph(6).adjacency_masks(), 63) == [63]


def _glued(blocks_edges):
    """Blocks glued in a chain: each shares its first vertex with the
    last vertex of the one before."""
    edges, n = [], 0
    for k, block in blocks_edges:
        base = max(n - 1, 0)
        edges += [(base + u, base + v) for u, v in block]
        n = base + k
    return SimpleGraph.from_edges(n, edges)


def _clique(k):
    return k, list(combinations(range(k), 2))


def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


@pytest.mark.parametrize("g, budget, verdict", [
    (empty_graph(0), [], True),
    (empty_graph(1), [0], False),
    (empty_graph(2), [1, 1], True),
    (complete_graph(4), [3] * 4, False),
    (complete_graph(4), [3, 3, 3, 4], True),
    (complete_graph(4), [3, 3, 3, 2], None),
    (cycle_graph(5), [2] * 5, False),
    (cycle_graph(6), [2] * 6, True),
    (complete_bipartite(2, 3), [3, 3, 2, 2, 2], True),
    (complete_bipartite(2, 3), [2] * 5, None),
    # K_4 minus an edge, glued to a triangle
    (_glued([(4, [e for e in combinations(range(4), 2) if e != (0, 3)]), _clique(3)]),
     [2, 3, 3, 4, 2, 2], True),
    (_glued([_clique(4), _clique(4)]), [3, 3, 3, 6, 3, 3, 3], False),
    (_glued([_cycle(5), _clique(2), _cycle(3)]), [2, 2, 2, 2, 3, 3, 2, 2], False),
    # a Gallai tree beside a component that is not one
    (SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
     [2] * 7, False),
    # a leaf with a spare colour peels off, then the path behind it
    (path_graph(4), [1, 2, 2, 2], True),
    (path_graph(4), [1, 2, 2, 1], False),
])
def test_degree_route_on_classics(g, budget, verdict):
    assert degree_route(g.adjacency_masks(), budget) is verdict
