import json
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcert import cli, structure
from colorcert.alon_tarsi import is_f_AT
from colorcert.catalog import two_join_catalog
from colorcert.graphs import (
    ListSizeFn, MultiGraph, SimpleGraph, _check_vertex, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, join, line_graph, path_graph,
)
from colorcert.kernel import is_f_KP
from conftest import (
    neighbors, path_power, random_interval_graph, random_multigraph, random_simple_graph,
    shuffled,
)


def _isomorphic(g1, g2, return_map=False):
    """Brute-force isomorphism test for small graphs."""
    if g1.n != g2.n or len(g1.edge_list()) != len(g2.edge_list()):
        return (False, None) if return_map else False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return (False, None) if return_map else False
    d1, d2 = g1.degrees(), g2.degrees()
    for perm in permutations(range(g1.n)):
        if any(d1[v] != d2[perm[v]] for v in range(g1.n)):
            continue
        if all(g2.has_edge(perm[u], perm[v]) for u, v in g1.edge_list()):
            return (True, perm) if return_map else True
    return (False, None) if return_map else False


def test_claw_free_recognizer():
    claw = complete_bipartite(1, 3)
    ok, witness = structure.is_claw_free(claw)
    assert not ok
    c, x, y, z = witness
    assert claw.has_edge(c, x) and claw.has_edge(c, y) and claw.has_edge(c, z)
    assert not claw.has_edge(x, y)
    assert structure.is_claw_free(cycle_graph(5))[0]
    assert structure.is_claw_free(complete_graph(4))[0]


def test_line_graphs_are_claw_free_and_quasi_line(rng):
    for _ in range(10):
        h = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        g, _ = line_graph(h)
        assert structure.is_claw_free(g)[0]
        assert structure.is_quasi_line(g)[0]


def test_quasi_line_negative():
    # the 5-wheel is claw-free but not quasi-line (hub neighborhood is C5)
    wheel = join(complete_graph(1), cycle_graph(5))
    assert structure.is_claw_free(wheel)[0]
    ok, v = structure.is_quasi_line(wheel)
    assert not ok and v == 0


# the quasi-line test by two_coloring on complement masks against the
# earlier coloring that scanned every pair of neighbours

def _complement_bipartite(g, verts):
    adj = g.adjacency_masks()
    color = {}
    for start in verts:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in verts:
                if y == x or adj[x] >> y & 1:
                    continue
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _is_quasi_line_oracle(g):
    for v in range(g.n):
        nbrs = sorted(neighbors(g, v))
        if not _complement_bipartite(g, nbrs):
            return False, v
    return True, None


def _hub_over_complement(rng):
    """A hub joined to every vertex of H, where the complement of H is
    paths and even cycles, then (most of the time) an odd cycle as its
    last component, then isolated vertices; a few pendant vertices
    hang off H.  Labels are shuffled half the time."""
    comp, k = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 4)
        comp += [(k + i, k + i + 1) for i in range(size - 1)]
        if size == 4 and rng.random() < 0.5:
            comp.append((k, k + 3))
        k += size
    if rng.random() < 0.7:
        size = rng.choice((3, 5))
        comp += [(k + i, k + (i + 1) % size) for i in range(size)]
        k += size
    k += rng.randint(0, 2)
    cset = {frozenset(e) for e in comp}
    edges = [(u + 1, v + 1) for u, v in combinations(range(k), 2) if {u, v} not in cset]
    edges += [(0, v + 1) for v in range(k)]
    extra = rng.randint(0, 2)
    edges += [(k + 1 + i, rng.randint(1, k)) for i in range(extra)]
    n = k + 1 + extra
    if rng.random() < 0.5:
        return shuffled(rng, n, edges)
    return SimpleGraph.from_edges(n, edges)


def test_quasi_line_matches_the_pairwise_coloring(rng):
    quasi_line = 0
    for i in range(300):
        if i % 3:
            g = _hub_over_complement(rng)
        else:
            g = random_simple_graph(rng, rng.randint(1, 9), p=rng.uniform(0.3, 0.95))
        want = _is_quasi_line_oracle(g)
        assert structure.is_quasi_line(g) == want, g.edge_list()
        quasi_line += want[0]
    assert 60 < quasi_line < 240


def test_recognize_line_graph_roundtrip(rng):
    checked = 0
    while checked < 12:
        h = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 5))
        g, _ = line_graph(h)
        if g.n > 12 or g.n == 0:
            continue
        root = structure.recognize_line_graph(g)
        assert root is not None
        g2, _ = line_graph(root)
        assert _isomorphic(g, g2)
        # the shared helper's origin names the root edge behind each vertex
        same, origin = structure.line_graph_root(g)
        assert same == root and line_graph(root, origin)[0] == g
        checked += 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recognize_line_graph_shuffled_k34(seed):
    # 12 vertices, all of degree 5: an isomorphism search over the line
    # graphs does not finish, so the oracle compares the 7-vertex roots;
    # isomorphic roots have isomorphic line graphs
    k34 = complete_bipartite(3, 4)
    base, _ = line_graph(MultiGraph.from_edges(7, k34.edge_list()))
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    g = SimpleGraph.from_edges(base.n, [(perm[u], perm[v]) for u, v in base.edge_list()])
    root = structure.recognize_line_graph(g)
    assert root is not None and root.max_multiplicity() == 1
    assert _isomorphic(root.support(), k34)


@pytest.mark.parametrize("n", range(5))
def test_recognize_line_graph_roots_an_edgeless_graph_in_a_matching(n):
    # the cover of no edges has no parts, so each vertex gets two
    # private pendant parts: the root edge (2i, 2i+1)
    root = structure.recognize_line_graph(SimpleGraph.from_edges(n, []))
    assert root == MultiGraph.from_edges(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])


def test_recognize_line_graph_negative():
    assert structure.recognize_line_graph(complete_bipartite(1, 3)) is None
    # K5 minus a perfect matching-ish: C5 complement is C5, a line graph
    assert structure.recognize_line_graph(cycle_graph(5)) is not None


def test_homogeneous_pairs_in_c4():
    c4 = cycle_graph(4)
    pairs = structure.find_homogeneous_pairs(c4)
    found = {(tuple(sorted(p.a1)), tuple(sorted(p.a2))) for p in pairs}
    assert ((0, 1), (2, 3)) in found or ((2, 3), (0, 1)) in found
    nonlinear = structure.find_homogeneous_pairs(c4, nonlinear_only=True)
    assert nonlinear  # C4 on A1 union A2


def test_linear_and_circular_interval():
    assert structure.is_linear_interval(path_graph(5)) is not None
    assert structure.is_linear_interval(cycle_graph(5)) is None
    assert structure.is_circular_interval(cycle_graph(5)) is not None
    assert structure.is_circular_interval(complete_graph(4)) is not None
    claw = complete_bipartite(1, 3)
    assert structure.is_circular_interval(claw) is None


# ---------------------------------------------------------------------------
# the clique and vertex-order searches against the earlier scans over all
# vertex subsets and all permutations

def recognize_line_graph(g, cap=12):
    """Find a root multigraph whose line graph equals g exactly."""
    if g.n > cap:
        raise ValueError(f"recognition capped at {cap} vertices")
    edges = g.edge_list()
    if not edges:
        # n isolated vertices: root is a matching of n edges
        return MultiGraph.from_edges(2 * g.n, [(2 * i, 2 * i + 1) for i in range(g.n)]) if g.n else MultiGraph.from_edges(0, [])

    all_cliques = []
    for size in range(2, g.n + 1):
        for vs in combinations(range(g.n), size):
            if g.is_clique(vs):
                all_cliques.append(frozenset(vs))
    all_cliques.sort(key=lambda c: (len(c), sorted(c)))

    def cover(remaining, used, load):
        # edge-clique cover with every vertex in at most two parts;
        # overlap on edges is allowed (parallel root edges share both
        # of their cliques)
        if not remaining:
            return list(used)
        pivot = min(remaining, key=lambda e: tuple(sorted(e)))
        for cl in all_cliques:
            if not pivot <= cl:
                continue
            if any(load[v] >= 2 for v in cl):
                continue
            inside = {frozenset(p) for p in combinations(sorted(cl), 2)}
            for v in cl:
                load[v] += 1
            used.append(cl)
            res = cover(remaining - inside, used, load)
            if res is not None:
                return res
            used.pop()
            for v in cl:
                load[v] -= 1
        return None

    load = [0] * g.n
    parts = cover(set(map(frozenset, g.edge_list())), [], load)
    if parts is None:
        return None
    # every vertex must end in exactly two parts; vertices in fewer
    # get private pendant parts
    membership = {v: [i for i, cl in enumerate(parts) if v in cl] for v in range(g.n)}
    extra = len(parts)
    origin = []
    for v in range(g.n):
        ms = membership[v]
        while len(ms) < 2:
            ms.append(extra)
            extra += 1
        origin.append((min(ms), max(ms)))
    root = MultiGraph.from_edges(extra, origin)
    if line_graph(root, origin)[0].edge_list() != g.edge_list():
        return None
    return root


def find_homogeneous_pairs(g, nonlinear_only=False, cap=12):
    """All homogeneous pairs of cliques (|A1| + |A2| >= 3)."""
    if g.n > cap:
        raise ValueError(f"search capped at {cap} vertices")
    cliques = []
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            if g.is_clique(vs):
                cliques.append(frozenset(vs))
    found = []
    for a1, a2 in combinations(cliques, 2):
        if a1 & a2 or len(a1) + len(a2) < 3:
            continue
        if not _homogeneous(g, a1, other=a2) or not _homogeneous(g, a2, other=a1):
            continue
        if nonlinear_only and not _contains_induced_c4(g, a1 | a2):
            continue
        found.append(structure.HomogeneousPair(a1, a2))
    return found


def _homogeneous(g, aset, other=frozenset()):
    outside = set(range(g.n)) - aset - other
    for v in outside:
        hits = sum(1 for a in aset if g.has_edge(v, a))
        if hits not in (0, len(aset)):
            return False
    return True


def _contains_induced_c4(g, verts):
    for quad in combinations(sorted(verts), 4):
        sub, _ = g.induced(quad)
        if sorted(sub.degrees()) == [2, 2, 2, 2] and len(sub.edge_list()) == 4 and _connected(sub):
            return True
    return False


def _connected(g):
    seen = {0}
    stack = [0]
    while stack:
        for w in neighbors(g, stack.pop()) - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == g.n


def _is_linear_interval_order(g, order):
    """Every closed neighborhood is contiguous in the order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        ps = sorted([pos[v]] + [pos[w] for w in neighbors(g, v) if w in pos])
        if ps[-1] - ps[0] != len(ps) - 1:
            return False
    return True


def is_linear_interval(g, cap=10):
    """A vertex order with contiguous neighborhoods, or None."""
    if g.n > cap:
        raise ValueError(f"search capped at {cap} vertices")
    if g.n <= 1:
        return list(range(g.n))
    for perm in permutations(range(g.n)):
        if perm[0] > perm[-1]:
            continue  # skip reversals
        if _is_linear_interval_order(g, list(perm)):
            return list(perm)
    return None


def _interval_order_with_ends(sub, a1_idx, a2_idx):
    """Linear interval order placing A1 first and A2 last, or None."""
    n = sub.n
    for perm in permutations(range(n)):
        order = list(perm)
        if set(order[: len(a1_idx)]) != a1_idx:
            continue
        if a2_idx and set(order[-len(a2_idx):]) != a2_idx:
            continue
        if _is_linear_interval_order(sub, order):
            return order
    return None


def _interval_hard_cases(rng, most=8):
    """Path powers, interval graphs and near misses, labels shuffled.

    The permutation oracles take about 0.1 s on an 8-vertex graph with no
    accepted order, so graphs stop at `most` vertices.
    """
    for n in range(1, most + 1):
        for k in (1, 2, 3):
            path = path_power(n, k)
            yield shuffled(rng, n, path)
            if len(path) > 1:
                gone = rng.choice(path)
                yield shuffled(rng, n, [e for e in path if e != gone])
            others = [e for e in combinations(range(n), 2) if e not in path]
            if others:
                yield shuffled(rng, n, path + [rng.choice(others)])
        yield random_interval_graph(rng, n)
        yield shuffled(rng, n, cycle_graph(n).edge_list() if n >= 3 else [])
    for _ in range(40):
        yield random_simple_graph(rng, rng.randint(2, most), rng.uniform(0.2, 0.9))


def test_recognize_line_graph_matches_the_subset_scan(rng):
    graphs = [line_graph(random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 5)))[0]
              for _ in range(40)]
    graphs += [random_simple_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.9))
               for _ in range(40)]
    graphs += [shuffled(rng, g.n, g.edge_list()) for g in graphs[:40]]
    graphs += list(_interval_hard_cases(rng, most=7))
    for g in graphs:
        if g.n <= 10:
            assert structure.recognize_line_graph(g) == recognize_line_graph(g), g.edge_list()


# ---------------------------------------------------------------------------
# the mask cover of recognize_line_graph against the pair-set cover it
# replaced

def _recognize_line_graph_on_sets(g, cap=12):
    """Find a root multigraph whose line graph equals g exactly."""
    if g.n > cap:
        raise ValueError(f"recognition capped at {cap} vertices")
    all_cliques = [frozenset(c) for c in g.cliques() if len(c) >= 2]

    def cover(remaining, used, load):
        if not remaining:
            return list(used)
        a, b = min(remaining)
        for cl in all_cliques:
            if a not in cl or b not in cl:
                continue
            if any(load[v] >= 2 for v in cl):
                continue
            inside = set(combinations(sorted(cl), 2))
            for v in cl:
                load[v] += 1
            used.append(cl)
            res = cover(remaining - inside, used, load)
            if res is not None:
                return res
            used.pop()
            for v in cl:
                load[v] -= 1
        return None

    load = [0] * g.n
    parts = cover(set(g.edge_list()), [], load)
    if parts is None:
        return None
    membership = {v: [i for i, cl in enumerate(parts) if v in cl] for v in range(g.n)}
    extra = len(parts)
    origin = []
    for v in range(g.n):
        ms = membership[v]
        while len(ms) < 2:
            ms.append(extra)
            extra += 1
        origin.append((min(ms), max(ms)))
    root = MultiGraph.from_edges(extra, origin)
    if line_graph(root, origin)[0] != g:
        return None
    return root


def _triangle_and_claw_root(rng):
    """Triangles and claws glued at shared vertices: the line graphs of
    K_3 and K_{1,3} are both a triangle, so the cover has to tell which
    of its triangles are root vertices."""
    n = rng.randint(4, 7)
    records = []
    for _ in range(rng.randint(1, 3)):
        a, b, c, d = rng.sample(range(n), 4)
        records += [(a, b), (a, c), (b, c)] if rng.random() < 0.5 else [(a, b), (a, c), (a, d)]
    return MultiGraph.from_edges(n, records)


def _line_graph_cases(rng):
    """Shuffled line graphs of multigraphs with copies up to 3, of glued
    triangles and claws, and with isolated vertices; then line graphs
    with one vertex pair toggled or a vertex joined to random others.
    About a quarter of the latter are not line graphs, and their cover
    search fails part way."""
    roots = [random_multigraph(rng, rng.randint(2, 6), rng.randint(1, 6)) for _ in range(120)]
    roots += [_triangle_and_claw_root(rng) for _ in range(80)]
    lines = [g for g in (line_graph(h)[0] for h in roots) if g.n <= 10]
    for g in lines[:60]:
        isolated = rng.randint(1, 2)
        if g.n + isolated <= 10:
            lines.append(SimpleGraph.from_edges(g.n + isolated, g.edge_list()))
    for g in lines:
        yield shuffled(rng, g.n, g.edge_list())
    for g in [g for g in lines if 5 <= g.n <= 8] * 4:
        u, v = rng.sample(range(g.n), 2)
        yield shuffled(rng, g.n, sorted(set(g.edge_list()) ^ {(min(u, v), max(u, v))}))
        joined = [(w, g.n) for w in range(g.n) if rng.random() < 0.5]
        yield shuffled(rng, g.n + 1, g.edge_list() + joined)


def test_line_graph_cover_matches_the_pair_set_cover(rng):
    lines = others = 0
    for g in _line_graph_cases(rng):
        root = structure.recognize_line_graph(g)
        assert root == _recognize_line_graph_on_sets(g), g.edge_list()
        lines += root is not None
        others += root is None
    assert lines > 600 and others > 100


def _recognize_line_graph_without_the_cut(g):
    """The mask cover before it dropped parts that strand an edge at a
    vertex entering its second part."""
    cliques = [sum(1 << v for v in c) for c in g.cliques() if len(c) >= 2]

    def cover(rest, once, twice):
        a = next((v for v, m in enumerate(rest) if m), None)
        if a is None:
            return []
        edge = 1 << a | rest[a] & -rest[a]
        for cl in cliques:
            if cl & edge == edge and not cl & twice:
                tail = cover(tuple(m & ~cl if cl >> v & 1 else m for v, m in enumerate(rest)),
                             once | cl, twice | once & cl)
                if tail is not None:
                    return [cl, *tail]
        return None

    parts = cover(g.adjacency_masks(), 0, 0)
    if parts is None:
        return None
    extra = len(parts)
    origin = []
    for v in range(g.n):
        ms = [i for i, cl in enumerate(parts) if cl >> v & 1]
        while len(ms) < 2:
            ms.append(extra)
            extra += 1
        origin.append(tuple(ms))
    root = MultiGraph.from_edges(extra, origin)
    return root if line_graph(root, origin)[0] == g else None


def test_line_graph_cover_matches_the_cover_without_the_cut(rng):
    graphs = []
    while len(graphs) < 320:
        g = line_graph(random_multigraph(rng, rng.randint(3, 6), rng.randint(3, 7)))[0]
        if 6 <= g.n <= 11:
            graphs.append(shuffled(rng, g.n, g.edge_list()))
    for g in graphs:
        root = structure.recognize_line_graph(g)
        assert root is not None and root == _recognize_line_graph_without_the_cut(g), g.edge_list()


def test_structure_linegraph_decides_ten_parallel_copies_at_once(tmp_path, capsys):
    # the root 02x2, 05, 12x3, 23, 24x2, 25x2 plus a vertex joined to five
    # copies, labels shuffled: vertex 2's ten copies make a 10-clique,
    # and without the cut the cover took over 10 s
    path = tmp_path / "k10.g6"
    path.write_text("KJ\\z~~~~~~pM\n")
    start = time.perf_counter()
    assert cli.main(["structure", "linegraph", str(path)]) == 0
    assert time.perf_counter() - start < 2


def test_homogeneous_pairs_match_the_subset_scan(rng):
    graphs = list(_interval_hard_cases(rng, most=7))
    graphs += [line_graph(random_multigraph(rng, 4, rng.randint(2, 5)))[0] for _ in range(20)]
    nonlinear = 0
    for g in graphs:
        if g.n > 9:
            continue
        for only in (False, True):
            got = structure.find_homogeneous_pairs(g, nonlinear_only=only)
            assert got == find_homogeneous_pairs(g, nonlinear_only=only), g.edge_list()
            nonlinear += only and len(got)
    assert nonlinear >= 10


def test_linear_interval_matches_the_permutation_scan(rng):
    answers = []
    for g in _interval_hard_cases(rng):
        answer = structure.is_linear_interval(g)
        assert answer == is_linear_interval(g), g.edge_list()
        answers.append(answer)
    assert sum(a is None for a in answers) >= 30
    assert sum(a is not None for a in answers) >= 30


def test_interval_order_with_ends_matches_the_permutation_scan(rng):
    # end cliques from the ends of a found order, from other cliques of
    # the graph, and empty
    found = 0
    for g in _interval_hard_cases(rng, most=7):
        order = is_linear_interval(g)
        cliques = [frozenset(c) for c in g.cliques()]
        ends = [(frozenset(), frozenset())]
        ends += [(rng.choice(cliques), rng.choice(cliques)) for _ in range(2)]
        ends.append((rng.choice(cliques), frozenset()))
        if order:
            ends.append((frozenset(order[:1]), frozenset(order[-2:])
                         if g.is_clique(order[-2:]) else frozenset(order[-1:])))
        for a1, a2 in ends:
            want = _interval_order_with_ends(g, set(a1), set(a2))
            got = structure._interval_order_with_ends(
                g.adjacency_masks(), (1 << g.n) - 1, set(a1), set(a2))
            assert got == want, (g.edge_list(), a1, a2)
            found += want is not None
    assert found >= 60


def test_linear_search_cuts_by_its_rule(monkeypatch):
    # the permutation scan tries all 10! orders of C10; a search that
    # does not end an open neighbourhood's run at the last placed
    # position tests 66710 prefixes
    fit = structure._runs_fit
    tested = []

    def counting(*a):
        tested.append(1)
        return fit(*a)

    monkeypatch.setattr(structure, "_runs_fit", counting)
    assert structure.is_linear_interval(cycle_graph(10)) is None
    assert len(tested) <= 260
    assert structure.is_linear_interval(shuffled(random.Random(1), 10, path_power(10, 3)))


def is_circular_interval(g, cap=9):
    """A circular vertex order with contiguous arc neighborhoods, or None."""
    if g.n > cap:
        raise ValueError(f"search capped at {cap} vertices")
    if g.n <= 2:
        return list(range(g.n))
    n = g.n
    for perm in permutations(range(1, n)):
        order = [0] + list(perm)
        if order[1] > order[-1]:
            continue  # skip reflections
        pos = {v: i for i, v in enumerate(order)}
        ok = True
        for v in order:
            nbrs = {pos[w] for w in neighbors(g, v)}
            if not nbrs:
                continue
            # the closed neighborhood must form a circular arc
            block = nbrs | {pos[v]}
            if not _is_circular_arc(block, n):
                ok = False
                break
        if ok:
            return order
    return None


def _is_circular_arc(posset, n):
    """A position set is an arc iff it or its complement is contiguous."""
    if len(posset) >= n:
        return True
    ps = sorted(posset)
    if ps[-1] - ps[0] == len(ps) - 1:
        return True
    comp = sorted(set(range(n)) - posset)
    return comp[-1] - comp[0] == len(comp) - 1


def _cycle_power(n, k):
    return [(u, v) for u, v in combinations(range(n), 2) if min(v - u, n - v + u) <= k]


def _circular_hard_cases(rng):
    """Graphs where the prune's wrap-around case and its limits matter.

    The oracle takes about 0.15 s on a 9-vertex graph that is not
    circular, so only some families reach the cap.
    """
    for n in range(5, 10):
        for k in (1, 2, 3):
            cyc = _cycle_power(n, k)
            yield shuffled(rng, n, cyc)
            yield shuffled(rng, n, path_power(n, k))
            if n == 9 and k != 2:
                continue
            # near misses: C_n^k with one edge removed or one added
            gone = rng.choice(cyc)
            yield shuffled(rng, n, [e for e in cyc if e != gone])
            others = [e for e in combinations(range(n), 2) if e not in cyc]
            if others:
                yield shuffled(rng, n, cyc + [rng.choice(others)])
            if n <= 8:
                # an isolated vertex, then a vertex adjacent to all others
                yield shuffled(rng, n + 1, cyc)
                yield shuffled(rng, n + 1, cyc + [(v, n) for v in range(n)])
        yield shuffled(rng, n, cycle_graph(n).complement().edge_list())
    for i in range(60):
        n = 9 if i % 15 == 0 else rng.randint(3, 8)
        yield random_simple_graph(rng, n, rng.uniform(0.2, 0.9))


def test_circular_interval_matches_brute_force(rng):
    answers = []
    for g in _circular_hard_cases(rng):
        answer = structure.is_circular_interval(g)
        assert answer == is_circular_interval(g), g.edge_list()
        answers.append(answer)
    # both answers occur often
    assert sum(a is None for a in answers) >= 30
    assert sum(a is not None for a in answers) >= 60


def test_circular_search_cuts_by_its_rule(monkeypatch):
    # prefixes tested on the complements of C5..C9; a search that lets an
    # arc wrap past an unplaced non-neighbour tests 26, 193, 179, 2775
    # and 1782 of them
    fit = structure._arcs_fit
    tested = []

    def counting(*a):
        tested.append(1)
        return fit(*a)

    monkeypatch.setattr(structure, "_arcs_fit", counting)
    for n, most in zip(range(5, 10), (14, 79, 39, 477, 125)):
        tested.clear()
        structure.is_circular_interval(cycle_graph(n).complement())
        assert len(tested) <= most, n


def test_circular_interval_cap():
    with pytest.raises(ValueError):
        structure.is_circular_interval(cycle_graph(10))
    assert structure.is_circular_interval(complete_graph(2)) == [0, 1]


def test_builtin_strip_instances_verify():
    for tag, name, g, tj in two_join_catalog():
        ok, why = structure.verify_2join(g, tj)
        assert ok, (tag, why)


def test_verify_2join_rejects_stray_edge():
    # P5 strip with an extra edge from the strip interior to the outside
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 0)])
    _, _, _, tj = two_join_catalog()[1]
    ok, why = structure.verify_2join(g, tj)
    assert not ok and "(iv)" in why


def test_verify_2join_rejects_strip_vertices_outside_the_graph():
    # the path 0-1-2; an id outside 0..2 used to become an isolated vertex
    g = path_graph(3)
    for bad in (9, -5):
        tj = structure.TwoJoin(frozenset({1, 2, bad}), frozenset({1}), frozenset({bad}),
                               frozenset({0}), frozenset())
        with pytest.raises(ValueError, match="out of range"):
            structure.verify_2join(g, tj)


def test_verify_2join_rejects_outside_clique_ids_outside_the_graph():
    # with the matching end clique empty, no clique or join test reads B1/B2
    g = path_graph(3)
    for b1, b2 in (({99}, {-4}), ({0, 99}, set()), (set(), {3})):
        tj = structure.TwoJoin(frozenset({0, 1, 2}), frozenset(), frozenset(),
                               frozenset(b1), frozenset(b2))
        with pytest.raises(ValueError, match="out of range"):
            structure.verify_2join(g, tj)


def test_twojoin_json_roundtrip():
    _, _, _, tj = two_join_catalog()[1]
    assert structure.TwoJoin.from_json(tj.to_json()) == tj


def test_reduce_2join_shrinks_and_verifies():
    # reducible strip: a path P5 inside a 7-vertex host
    g = SimpleGraph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    tj = structure.TwoJoin(
        frozenset({1, 2, 3, 4, 5}), frozenset({1}), frozenset({5}),
        frozenset({0}), frozenset({6}))
    ok, _ = structure.verify_2join(g, tj)
    assert ok
    reduced = structure.reduce_2join(g, tj)
    assert len(reduced.h) < len(tj.h)
    ok, why = structure.verify_2join(g, reduced)
    assert ok, why


def test_reduce_2join_searches_the_strip_order_once(monkeypatch):
    # the strip check hands its order to the reduction, which does not
    # search again
    search = structure._interval_order_with_ends
    calls = []
    monkeypatch.setattr(structure, "_interval_order_with_ends",
                        lambda *a: calls.append(1) or search(*a))
    g = path_graph(7)
    tj = structure.TwoJoin(frozenset({1, 2, 3, 4, 5}), frozenset({1}), frozenset({5}),
                           frozenset({0}), frozenset({6}))
    assert structure.reduce_2join(g, tj) == structure.TwoJoin(
        frozenset({2, 3, 4, 5}), frozenset({2}), frozenset({5}), frozenset({1}),
        frozenset({6}))
    assert len(calls) == 1


def test_reduce_2join_iterates_to_fixpoint(rng):
    # iterated reduction strictly shrinks and keeps verifying
    for length in (4, 5, 6):
        n = length + 2
        edges = [(i, i + 1) for i in range(n - 1)]
        g = SimpleGraph.from_edges(n, edges)
        tj = structure.TwoJoin(
            frozenset(range(1, n - 1)), frozenset({1}),
            frozenset({n - 2}), frozenset({0}), frozenset({n - 1}))
        sizes = [len(tj.h)]
        while (tj := structure.reduce_2join(g, tj)) is not None:
            ok, why = structure.verify_2join(g, tj)
            assert ok, why
            assert len(tj.h) < sizes[-1]
            sizes.append(len(tj.h))
        assert len(sizes) >= 1


def test_compose_trivial_cases():
    # single hub edge with a K1 strip gives K1
    spec = structure.CompositionSpec(
        hub_n=2, hub_edges=((0, 1),),
        strips=(structure.Strip(complete_graph(1), (0,), (0,)),))
    g = structure.compose(spec)
    assert g.n == 1 and not g.edge_list()

    # triangle hub with K1 strips gives the line graph of the triangle
    spec = structure.CompositionSpec(
        hub_n=3, hub_edges=((0, 1), (1, 2), (2, 0)),
        strips=tuple(structure.Strip(complete_graph(1), (0,), (0,))
                     for _ in range(3)))
    g = structure.compose(spec)
    assert g.n == 3 and len(g.edge_list()) == 3  # K3


def test_compose_matches_line_graph_of_replicated_hub():
    # two parallel hub edges with K2 strips (X = Y = V) behave like a
    # 4-fold multigraph edge
    spec = structure.CompositionSpec(
        hub_n=2, hub_edges=((0, 1), (0, 1)),
        strips=tuple(structure.Strip(complete_graph(2), (0, 1), (0, 1))
                     for _ in range(2)))
    g = structure.compose(spec)
    expect, _ = line_graph(MultiGraph.from_edges(2, [(0, 1, 4)]))
    assert _isomorphic(g, expect)


def test_compositions_are_quasi_line(rng):
    # random small compositions of linear interval strips stay quasi-line
    for _ in range(5):
        hub_n = 2
        strips = []
        hub_edges = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            strip = path_graph(k)
            strips.append(structure.Strip(strip, (0,), (k - 1,)))
            hub_edges.append((0, 1))
        spec = structure.CompositionSpec(
            hub_n=hub_n, hub_edges=tuple(hub_edges), strips=tuple(strips))
        g = structure.compose(spec)
        assert structure.is_claw_free(g)[0]
        assert structure.is_quasi_line(g)[0]


# ---------------------------------------------------------------------------
# the one-pass compose against the earlier three-pass one

def _compose_oracle(spec):
    """Disjoint union of the strips with each hub-vertex class made a clique."""
    if len(spec.strips) != len(spec.hub_edges):
        raise ValueError("one strip per hub edge required")
    for strip in spec.strips:
        adj = strip.graph.adjacency_masks()
        for name, cl in (("X", frozenset(strip.x)), ("Y", frozenset(strip.y))):
            for v in cl:
                _check_vertex(v, strip.graph.n)
            if not strip.graph.is_clique(sorted(cl)):
                raise ValueError(f"strip end {name} is not a clique")
            if not all(structure._is_clique(adj, adj[v] & ~structure._mask(cl)) for v in cl):
                raise ValueError("strip end vertex with non-clique outside neighborhood")
    offsets = []
    total = 0
    for strip in spec.strips:
        offsets.append(total)
        total += strip.graph.n
    edges = []
    for strip, off in zip(spec.strips, offsets):
        edges.extend((u + off, v + off) for u, v in strip.graph.edge_list())
    classes = {v: set() for v in range(spec.hub_n)}
    for (u, v), strip, off in zip(spec.hub_edges, spec.strips, offsets):
        classes[u].update(x + off for x in frozenset(strip.x))
        classes[v].update(y + off for y in frozenset(strip.y))
    for cl in classes.values():
        edges.extend(combinations(sorted(cl), 2))
    return SimpleGraph.from_edges(total, edges)


def test_compose_matches_the_three_pass_compose(rng, monkeypatch):
    specs = []
    compose = structure.compose
    monkeypatch.setattr(structure, "compose", lambda spec: specs.append(spec) or compose(spec))
    for _ in range(40):
        _composed_strip(rng)
    test_compositions_are_quasi_line(rng)
    monkeypatch.undo()
    k2, p3 = complete_graph(2), path_graph(3)
    # loops only, repeated hub edges, both at once, ends given with repeats
    specs += [
        structure.CompositionSpec(1, ((0, 0),) * 3, (structure.Strip(p3, (0,), (2,)),) * 3),
        structure.CompositionSpec(3, ((0, 1),) * 3 + ((2, 1),), (
            structure.Strip(k2, (0, 1), (0, 1)), structure.Strip(p3, (0, 1), (2,)),
            structure.Strip(p3, (1, 2), (0,)), structure.Strip(k2, (0,), (1,)))),
        structure.CompositionSpec(4, ((1, 1), (1, 2), (1, 1), (2, 1)), (
            structure.Strip(p3, [0, 0], [2, 1]), structure.Strip(k2, [1], [0, 1, 0]),
            structure.Strip(complete_graph(1), (0,), (0,)), structure.Strip(p3, (2,), (0,)))),
    ]
    assert len(specs) > 45
    for spec in specs:
        g, want = structure.compose(spec), _compose_oracle(spec)
        assert g.n == want.n and g.adjacency_masks() == want.adjacency_masks(), spec


@pytest.mark.parametrize("strips", [
    [],
    [{"n": 3, "edges": [[0, 1]], "X": [0, 2], "Y": [1]}],
    [{"n": 3, "edges": [[0, 1], [0, 2]], "X": [0], "Y": [1]}],
    [{"n": 2, "edges": [[0, 1]], "X": [0, 5], "Y": [1]}],
])
def test_compose_refuses_what_the_three_pass_compose_refuses(strips):
    # the specs of test_compose_refuses_a_spec_it_cannot_compose_with_exit_2
    spec = structure.CompositionSpec.from_json({"hub_n": 2, "hub_edges": [[0, 1]],
                                                "strips": strips})
    with pytest.raises(ValueError) as want:
        _compose_oracle(spec)
    with pytest.raises(ValueError) as got:
        structure.compose(spec)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the mask walks against the earlier per-set scans; the earlier strip
# check calls the permutation scan `_interval_order_with_ends` above in
# place of the end-pinned search, which gives the same order

def is_claw_free(g):
    """Return (True, None) or (False, (center, a, b, c))."""
    adj = g.adjacency_masks()
    for v in range(g.n):
        nbrs = sorted(neighbors(g, v))
        for a, b, c in combinations(nbrs, 3):
            if not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1):
                return False, (v, a, b, c)
    return True, None


def verify_2join(g, tj):
    """Check the four strip conditions; returns (True, None) or (False, why)."""
    for v in sorted(tj.h | tj.a1 | tj.a2 | tj.b1 | tj.b2):
        _check_vertex(v, g.n)
    h = tj.h
    if not h:
        return False, "(i) empty strip"
    if not (tj.a1 <= h and tj.a2 <= h):
        return False, "(i) end cliques not inside the strip"
    if h & (tj.b1 | tj.b2):
        return False, "(ii) outside cliques meet the strip"
    if len(h) > structure.LINEAR_INTERVAL_VERTICES:
        raise ValueError(
            f"interval-order search capped at {structure.LINEAR_INTERVAL_VERTICES} strip vertices")
    sub, order_map = g.induced(h)
    idx = {v: i for i, v in enumerate(order_map)}
    interval = _interval_order_with_ends(sub, {idx[v] for v in tj.a1}, {idx[v] for v in tj.a2})
    if interval is None:
        return False, "(i) strip is not a linear interval graph with the end cliques at its ends"
    for name, cl in (("A1", tj.a1), ("A2", tj.a2), ("B1", tj.b1), ("B2", tj.b2)):
        if not g.is_clique(sorted(cl)):
            return False, f"(ii) {name} is not a clique"
    for a in tj.a1:
        for b in tj.b1:
            if not g.has_edge(a, b):
                return False, "(iii) A1 not joined to B1"
    for a in tj.a2:
        for b in tj.b2:
            if not g.has_edge(a, b):
                return False, "(iii) A2 not joined to B2"
    outside = set(range(g.n)) - h
    for v in h:
        for w in outside:
            if not g.has_edge(v, w):
                continue
            ok = (v in tj.a1 and w in tj.b1) or (v in tj.a2 and w in tj.b2)
            if not ok:
                return False, "(iv) stray edge between the strip and the outside"
    return True, None


def reduce_2join(g, tj):
    """One reduction step on a canonical reducible strip."""
    if tj.a1 & tj.a2:
        raise ValueError("strip is not canonical (end cliques intersect)")
    ok, why = verify_2join(g, tj)
    if not ok:
        raise ValueError(f"invalid strip: {why}")
    sub, order_map = g.induced(tj.h)
    idx = {v: i for i, v in enumerate(order_map)}
    if sub.is_clique(range(sub.n)):
        raise ValueError("strip is complete, not reducible")
    order = _interval_order_with_ends(
        sub, {idx[v] for v in tj.a1}, {idx[v] for v in tj.a2}
    )

    def try_side(end_vertex, near, far, far_b):
        c = {w for w in tj.h if g.has_edge(end_vertex, w)} - near
        n_near = set()
        for a in near:
            n_near |= {w for w in tj.h if g.has_edge(a, w)}
        n_near -= near
        if n_near != c:
            return None
        moved = c & far
        return structure.TwoJoin(
            frozenset(tj.h - near - moved),
            frozenset(c - far),
            frozenset(far - c),
            frozenset(near | moved),
            frozenset(far_b | moved),
        )

    v1 = order_map[order[0]]
    vt = order_map[order[-1]]
    res = try_side(v1, tj.a1, tj.a2, tj.b2)
    if res is None:
        mirrored = try_side(vt, tj.a2, tj.a1, tj.b1)
        if mirrored is None:
            raise ValueError("strip is not reducible")
        res = structure.TwoJoin(mirrored.h, mirrored.a2, mirrored.a1, mirrored.b2, mirrored.b1)
    return res


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _relabel_all(rng, g, tj):
    """g and tj with the vertex labels shuffled."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = structure.TwoJoin(*(frozenset(perm[v] for v in part) for part in (
        tj.h, tj.a1, tj.a2, tj.b1, tj.b2)))
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()]), moved


def _composed_strip(rng):
    """A composition of path-power strips over a hub of 1-3 vertices,
    loops and parallel edges allowed, with the TwoJoin of its first
    strip."""
    hub_n = rng.randint(1, 3)
    hub_edges, strips = [], []
    for _ in range(rng.randint(1, 3)):
        k, r = rng.randint(1, 5), rng.randint(1, 2)
        x = tuple(range(rng.randint(1, min(r, k))))
        y = tuple(range(k - rng.randint(1, min(r, k)), k))
        strips.append(structure.Strip(SimpleGraph.from_edges(k, path_power(k, r)), x, y))
        hub_edges.append((rng.randrange(hub_n), rng.randrange(hub_n)))
    g = structure.compose(structure.CompositionSpec(hub_n, tuple(hub_edges), tuple(strips)))
    (u, v), first = hub_edges[0], strips[0]
    h = frozenset(range(first.graph.n))
    ends = {w: set() for w in range(hub_n)}
    off = 0
    for (p, q), strip in zip(hub_edges, strips):
        ends[p].update(off + w for w in strip.x)
        ends[q].update(off + w for w in strip.y)
        off += strip.graph.n
    return g, structure.TwoJoin(h, frozenset(first.x), frozenset(first.y),
                                frozenset(ends[u]) - h, frozenset(ends[v]) - h)


def _perturbed(rng, g, tj):
    """The strip itself, then one edit aimed at each strip condition."""
    outside = sorted(set(range(g.n)) - tj.h)
    inside = sorted(tj.h)
    yield g, tj
    yield g, structure.TwoJoin(frozenset(), frozenset(), frozenset(), tj.b1, tj.b2)
    if outside:  # (i) an end clique leaves the strip
        yield g, structure.TwoJoin(tj.h, tj.a1 | {rng.choice(outside)}, tj.a2, tj.b1, tj.b2)
    # (i) an end clique moves inside the strip, and (ii) the outside meets it
    yield g, structure.TwoJoin(tj.h, frozenset([rng.choice(inside)]), tj.a2, tj.b1, tj.b2)
    yield g, structure.TwoJoin(tj.h, tj.a1, tj.a2, tj.b1 | {rng.choice(inside)}, tj.b2)
    yield g, structure.TwoJoin(tj.h, tj.a1, tj.a2 | {rng.choice(inside)}, tj.b1, tj.b2)
    if outside:  # (ii) or (iii): an outside clique grows
        yield g, structure.TwoJoin(tj.h, tj.a1, tj.a2, tj.b1, tj.b2 | {rng.choice(outside)})
    if tj.b1:  # (iv): an outside clique shrinks
        yield g, structure.TwoJoin(tj.h, tj.a1, tj.a2, tj.b1 - {min(tj.b1)}, tj.b2)
    if outside:  # (iv): a strip vertex gains an edge out
        extra = (rng.choice(inside), rng.choice(outside))
        yield SimpleGraph.from_edges(g.n, g.edge_list() + [extra]), tj


def _random_strip(rng):
    """A random graph with random strip sets, mostly failing early."""
    g = random_simple_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
    h = set(rng.sample(range(g.n), rng.randint(0, min(g.n, 6))))
    pick = lambda pool: frozenset(v for v in pool if rng.random() < 0.3)
    return g, structure.TwoJoin(frozenset(h), pick(h), pick(h), pick(set(range(g.n)) - h),
                                pick(set(range(g.n)) - h))


def test_claw_walk_matches_the_triple_scan(rng):
    graphs = [random_simple_graph(rng, rng.randint(0, 10), rng.uniform(0.1, 0.9))
              for _ in range(200)]
    graphs += [line_graph(random_multigraph(rng, rng.randint(2, 6), rng.randint(1, 8)))[0]
               for _ in range(30)]
    graphs += [shuffled(rng, n, _cycle_power(n, k)) for n in range(4, 30, 5) for k in (1, 2, 4)]
    graphs += [shuffled(rng, g.n, g.edge_list()) for g in graphs[:100]]
    answers = [structure.is_claw_free(g) for g in graphs]
    assert answers == [is_claw_free(g) for g in graphs]
    assert 50 < sum(ok for ok, _ in answers) < len(graphs) - 50


_NOT_REDUCIBLE = {("ValueError", "strip is complete, not reducible"),
                  ("ValueError", "strip is not reducible")}


def test_strip_check_matches_the_set_scans(rng):
    cases = []
    for _ in range(60):
        cases += list(_perturbed(rng, *_composed_strip(rng)))
    cases += [_random_strip(rng) for _ in range(200)]
    cases += [_relabel_all(rng, g, tj) for g, tj in cases[:300]]
    whys, reduced, irreducible = set(), 0, 0
    for g, tj in cases:
        got = _outcome(structure.verify_2join, g, tj)
        assert got == _outcome(verify_2join, g, tj), (g.edge_list(), tj)
        whys.add(got[1] and got[1][:got[1].index(")") + 1])
        res = _outcome(structure.reduce_2join, g, tj)
        want = _outcome(reduce_2join, g, tj)
        # a valid strip that cannot be reduced is an answer, not an error
        if want in _NOT_REDUCIBLE:
            want = None
        assert res == want, (g.edge_list(), tj)
        reduced += isinstance(res, structure.TwoJoin)
        irreducible += res is None
    assert whys == {None, "(i)", "(ii)", "(iii)", "(iv)"}
    assert reduced >= 20 and irreducible >= 20


@st.composite
def _graph_and_relabelling(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    perm = draw(st.permutations(range(n)))
    return (SimpleGraph.from_edges(n, edges),
            SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]))


@settings(max_examples=60, deadline=None)
@given(_graph_and_relabelling())
def test_recognizer_verdicts_survive_relabelling(graphs):
    g, moved = graphs
    assert structure.is_claw_free(g)[0] == structure.is_claw_free(moved)[0]
    assert structure.is_quasi_line(g)[0] == structure.is_quasi_line(moved)[0]
    for only in (False, True):
        assert len(structure.find_homogeneous_pairs(g, nonlinear_only=only)) == len(
            structure.find_homogeneous_pairs(moved, nonlinear_only=only))


def test_bk_free_scan_flags_reducible_join():
    g = join(complete_graph(4), SimpleGraph.from_edges(2, []))
    hits = structure.bk_free_scan(g, delta=6)
    assert hits
    kinds = {kind for _, kind, _ in hits}
    assert "orientation" in kinds
    whole = [h for h in hits if len(h[0]) == g.n]
    assert whole and whole[0][2].check()


def test_bk_free_scan_skips_only_oversized_kernel_searches(monkeypatch):
    # the kernel route is skipped above F_KP_VERTICES and nowhere else; an
    # error from the search itself is not taken for a cap hit
    kp = structure.is_f_KP
    sizes = []

    def logged(sub, f, **kw):
        sizes.append(sub.n)
        if sub.n == 3:
            raise ValueError("planted failure")
        return kp(sub, f, **kw)

    monkeypatch.setattr(structure, "is_f_KP", logged)
    # only the whole 9-cycle has every f_H value at least 1, and it has
    # no orientation certificate
    assert structure.bk_free_scan(cycle_graph(9)) == []
    assert sizes == []
    with pytest.raises(ValueError, match="planted failure"):
        structure.bk_free_scan(complete_graph(3))
    assert sizes == [3]


def test_the_kernel_route_certifies_a_budget_that_no_orientation_does():
    # the f_H shape of an induced subgraph whose vertex 0 has degree
    # Delta - 1 in G and the rest Delta; the scan's kernel route is the
    # only one that certifies it, with no edge doubled
    g = SimpleGraph.from_edges(8, [(0, 1), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
                                   (2, 4), (2, 6), (3, 4), (3, 5), (4, 7), (5, 6), (5, 7), (6, 7)])
    f = ListSizeFn((2, 4, 2, 3, 3, 3, 3, 3))
    assert not is_f_AT(g, f)[0]
    kind, cert = structure._reducible(g, f)
    assert kind == "kernel" and cert.check() and cert.supergraph_edges == []


def test_bk_free_scan_refuses_more_subsets_than_its_cap(monkeypatch):
    # C_5 has 31 nonempty vertex subsets, 15 of at most 2 vertices and 25
    # of at most 3; only the whole cycle has every f_H value at least 1,
    # and a refused scan asks no certificate question
    asked = []
    monkeypatch.setattr(structure, "is_f_AT", lambda sub, f: asked.append(sub) or (False, None))
    monkeypatch.setattr(structure, "BK_SCAN_SUBSETS", 31)
    assert structure.bk_free_scan(cycle_graph(5)) == []
    assert asked == [cycle_graph(5)]
    monkeypatch.setattr(structure, "BK_SCAN_SUBSETS", 30)
    with pytest.raises(ValueError, match="capped at 30 vertex subsets, 31 asked"):
        structure.bk_free_scan(cycle_graph(5))
    monkeypatch.setattr(structure, "BK_SCAN_SUBSETS", 15)
    assert structure.bk_free_scan(cycle_graph(5), max_sub=2) == []
    with pytest.raises(ValueError, match="capped at 15 vertex subsets, 25 asked"):
        structure.bk_free_scan(cycle_graph(5), max_sub=3)
    assert asked == [cycle_graph(5)]


@pytest.mark.parametrize("max_sub", [0, -2])
def test_bk_free_scan_refuses_a_max_sub_below_1(max_sub, monkeypatch):
    # a scan of no subset would pass as "nothing reducible"
    asked = []
    monkeypatch.setattr(structure, "is_f_AT", lambda sub, f: asked.append(sub) or (False, None))
    with pytest.raises(ValueError, match=f"max_sub {max_sub} scans no subset"):
        structure.bk_free_scan(cycle_graph(5), max_sub=max_sub)
    assert asked == []
    # no max_sub scans every size, none at all on the empty graph
    assert structure.bk_free_scan(SimpleGraph.from_edges(0, [])) == []


def test_bk_free_scan_empty_on_small_clique():
    # a lone triangle with delta 3: f_H values fall below 1 on some
    # subgraphs, nothing is flagged
    g = complete_graph(3)
    hits = structure.bk_free_scan(g, delta=4)
    assert isinstance(hits, list)


# ---------------------------------------------------------------------------
# the budget-first scan against the earlier scan that built every subgraph

def _bk_free_scan_oracle(g, delta=None, max_sub=None):
    if delta is None:
        delta = g.max_degree()
    if max_sub is None:
        max_sub = g.n
    degs = g.degrees()
    found = []
    for size in range(1, min(max_sub, g.n) + 1):
        for vs in combinations(range(g.n), size):
            sub, order = g.induced(vs)
            fvals = []
            ok = True
            for i, v in enumerate(order):
                fv = sub.degree(i) - 1 + delta - degs[v]
                if fv < 1:
                    ok = False
                    break
                fvals.append(fv)
            if not ok:
                continue
            f = ListSizeFn(tuple(fvals))
            at_ok, cert = is_f_AT(sub, f)
            if at_ok:
                found.append((vs, "orientation", cert))
                continue
            try:
                kp = is_f_KP(sub, f, allow_doubling=True)
            except ValueError:
                continue  # over is_f_KP's cap
            if kp is not None:
                found.append((vs, "kernel", kp))
    return found


def _hits(hits):
    return [(vs, kind, cert.to_json()) for vs, kind, cert in hits]


def _strip_composition(rng):
    """Path-power strips on a triangle hub, sometimes with a parallel edge."""
    hub = [(0, 1), (1, 2), (2, 0)]
    if rng.random() < 0.5:
        hub.append(tuple(rng.sample(range(3), 2)))
    while True:
        sizes = [rng.randint(2, 3) for _ in hub]
        if sum(sizes) <= 8:
            break
    edges = set()
    ends = {v: [] for v in range(3)}
    offset = 0
    for (x, y), size in zip(hub, sizes):
        edges.update((offset + u, offset + v) for u, v in path_power(size, rng.randint(1, 2)))
        ends[x].append(offset)
        ends[y].append(offset + size - 1)
        offset += size
    for clique in ends.values():
        edges.update(combinations(sorted(clique), 2))
    return shuffled(rng, offset, edges)


def _corpus_shaped_graphs(rng, rounds):
    for r in range(rounds):
        for size in (7, 8):
            while True:
                h = random_multigraph(rng, rng.randint(5, 7), rng.randint(4, 8), max_mult=2)
                if sum(m for _, _, m in h.edges) == size:
                    break
            yield shuffled(rng, size, line_graph(h)[0].edge_list())
        n = (7, 8)[r % 2]
        yield shuffled(rng, n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if min(v - u, n - v + u) <= 2])
        n = (6, 8)[r % 2]
        yield shuffled(rng, n, path_power(n, 2))
        yield _strip_composition(rng)
        yield random_simple_graph(rng, rng.randint(6, 8), rng.uniform(0.3, 0.6))
        if r % 4 == 0:
            yield shuffled(rng, 12, line_graph(MultiGraph.from_edges(
                7, complete_bipartite(3, 4).edge_list()))[0].edge_list())


def test_bk_free_scan_matches_the_subgraph_scan_on_corpus_shapes(rng):
    for g in _corpus_shaped_graphs(rng, 12):
        assert _hits(structure.bk_free_scan(g, max_sub=3)) == _hits(
            _bk_free_scan_oracle(g, max_sub=3)), g.edge_list()


def test_bk_free_scan_matches_the_subgraph_scan_on_every_subset(rng):
    graphs = [cycle_graph(5), join(complete_graph(1), cycle_graph(5)), path_graph(4),
              join(complete_graph(3), SimpleGraph.from_edges(2, [])),
              shuffled(rng, 6, path_power(6, 2))]
    graphs += [random_simple_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.7))
               for _ in range(6)]
    for g in graphs:
        top = g.max_degree()
        for delta in (top - 1, top, top + 1):
            assert _hits(structure.bk_free_scan(g, delta=delta)) == _hits(
                _bk_free_scan_oracle(g, delta=delta)), (g.edge_list(), delta)


def test_bk_free_scan_asks_each_local_question_once(monkeypatch):
    # K_4 joined with two isolated vertices at delta 6: 63 subsets, 59
    # with every f_H value at least 1, and 13 distinct local questions
    g = join(complete_graph(4), SimpleGraph.from_edges(2, []))
    delta = 6
    degs = g.degrees()
    questions = set()
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            sub, order = g.induced(vs)
            f = tuple(sub.degree(i) - 1 + delta - degs[v] for i, v in enumerate(order))
            if min(f) >= 1:
                questions.add((sub.n, tuple(sub.edge_list()), f))
    assert len(questions) == 13

    builds, asked = [], []
    inside = []
    from_edges, at, kp = SimpleGraph.from_edges, structure.is_f_AT, structure.is_f_KP

    def counted_from_edges(n, edge_pairs):
        sub = from_edges(n, edge_pairs)
        if not inside:  # graphs the certificate searches build are not the scan's
            builds.append(sub)
        return sub

    def counted(search, log):
        def call(sub, f, **kw):
            log.append((sub.n, tuple(sub.edge_list()), f.values))
            inside.append(1)
            try:
                return search(sub, f, **kw)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(SimpleGraph, "from_edges", staticmethod(counted_from_edges))
    monkeypatch.setattr(structure, "is_f_AT", counted(at, asked))
    monkeypatch.setattr(structure, "is_f_KP", counted(kp, []))
    hits = structure.bk_free_scan(g, delta=delta)
    assert len(hits) == 48
    assert len(asked) == len(set(asked)) == 13
    assert set(asked) == questions
    # one build per question, none for a subset with a budget below 1
    assert len(builds) == 13
    assert {(b.n, tuple(b.edge_list())) for b in builds} == {q[:2] for q in questions}
