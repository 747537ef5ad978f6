import json
import random
from itertools import combinations, permutations

import pytest

from colorcert import structure
from colorcert.alon_tarsi import is_f_AT
from colorcert.catalog import two_join_catalog
from colorcert.graphs import (
    ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite, complete_graph,
    complete_multipartite_2t, cycle_graph, join, line_graph, path_graph,
)
from colorcert.kernel import is_f_KP
from conftest import (
    path_power, random_interval_graph, random_multigraph, random_simple_graph, shuffled,
)


def _isomorphic(g1, g2, return_map=False):
    """Brute-force isomorphism test for small graphs."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
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
    parts = cover(set(g.edges), [], load)
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
    if line_graph(root, origin)[0].edges != g.edges:
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
        if sorted(sub.degrees()) == [2, 2, 2, 2] and len(sub.edges) == 4 and _connected(sub):
            return True
    return False


def _connected(g):
    seen = {0}
    stack = [0]
    while stack:
        for w in g.neighbors(stack.pop()) - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == g.n


def _is_linear_interval_order(g, order):
    """Every closed neighborhood is contiguous in the order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        ps = sorted([pos[v]] + [pos[w] for w in g.neighbors(v) if w in pos])
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
            assert structure._interval_order_with_ends(g, set(a1), set(a2)) == want, (
                g.edge_list(), a1, a2)
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
            nbrs = {pos[w] for w in g.neighbors(v)}
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
        while True:
            try:
                tj = structure.reduce_2join(g, tj)
            except ValueError:
                break
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
    assert g.n == 1 and not g.edges

    # triangle hub with K1 strips gives the line graph of the triangle
    spec = structure.CompositionSpec(
        hub_n=3, hub_edges=((0, 1), (1, 2), (2, 0)),
        strips=tuple(structure.Strip(complete_graph(1), (0,), (0,))
                     for _ in range(3)))
    g = structure.compose(spec)
    assert g.n == 3 and len(g.edges) == 3  # K3


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
