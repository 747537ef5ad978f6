import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorcert import alon_tarsi, kernel, paint
from colorcert.graphs import (
    ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite, complete_graph,
    cycle_graph, path_graph,
)
from colorcert.paint import is_f_choosable, is_f_paintable
from conftest import random_simple_graph


def test_paintable_classics():
    # K2 needs 2 tokens; a path needs 2; odd cycles need 3
    g = complete_graph(2)
    assert paint.is_f_paintable(g, ListSizeFn.constant(2, 2))[0]
    assert not paint.is_f_paintable(g, ListSizeFn.constant(2, 1))[0]
    p = path_graph(4)
    assert paint.is_f_paintable(p, ListSizeFn.constant(4, 2))[0]
    c5 = cycle_graph(5)
    assert paint.is_f_paintable(c5, ListSizeFn.constant(5, 3))[0]
    assert not paint.is_f_paintable(c5, ListSizeFn.constant(5, 2))[0]
    c6 = cycle_graph(6)
    assert paint.is_f_paintable(c6, ListSizeFn.constant(6, 2))[0]


def test_transcript_shape():
    g = cycle_graph(5)
    ok, tr = paint.is_f_paintable(g, ListSizeFn.constant(5, 2))
    assert not ok and tr.winner == "Lister"
    doc = tr.to_json()
    assert doc["winner"] == "Lister"
    assert doc["rounds"]
    ok, tr = paint.is_f_paintable(g, ListSizeFn.constant(5, 3))
    assert ok and tr.winner == "Painter"


def test_pruned_matches_unpruned(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        g = random_simple_graph(rng, n, p=0.5)
        f = ListSizeFn(tuple(rng.randint(1, 3) for _ in range(n)))
        a, _ = paint.is_f_paintable(g, f)
        b, _ = _paintable_oracle(g, f, prune=False)
        assert a == b, (g.edge_list(), f.values)


def test_choosable_classics():
    c5 = cycle_graph(5)
    assert paint.is_f_choosable(c5, ListSizeFn.constant(5, 3))[0]
    ok, lists = paint.is_f_choosable(c5, ListSizeFn.constant(5, 2))
    assert not ok and lists is not None
    # the failing assignment really admits no proper coloring
    assert len(lists) == 5
    assert all(len(s) == 2 for s in lists)
    # the classical 2-choosability dichotomy on complete bipartite graphs
    k23 = complete_bipartite(2, 3)
    assert paint.is_f_choosable(k23, ListSizeFn.constant(5, 2))[0]
    k24 = complete_bipartite(2, 4)
    assert not paint.is_f_choosable(k24, ListSizeFn.constant(6, 2))[0]


def paintable_implies_choosable_check(g, f):
    """Check the implication paintable => choosable on one instance."""
    paint, _ = is_f_paintable(g, f)
    choose, _ = is_f_choosable(g, f)
    holds = (not paint) or choose
    return {"paintable": paint, "choosable": choose, "implication_holds": holds}


def test_paintable_implies_choosable(rng):
    for _ in range(12):
        n = rng.randint(1, 4)
        g = random_simple_graph(rng, n, p=0.5)
        f = ListSizeFn(tuple(rng.randint(1, 3) for _ in range(n)))
        result = paintable_implies_choosable_check(g, f)
        if result["paintable"]:
            assert result["choosable"]
        assert result["implication_holds"]


def test_AT_implies_paintable_small(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_simple_graph(rng, n, p=0.5)
        if not g.edges:
            continue
        f = ListSizeFn(tuple(max(1, g.degree(v)) for v in range(n)))
        ok, cert = alon_tarsi.is_f_AT(g, f)
        if ok:
            assert paint.is_f_paintable(g, f)[0]


def test_kernel_painter_full_tree_c5():
    g = cycle_graph(5)
    f = ListSizeFn.constant(5, 3)
    cert = kernel.is_f_KP(g, f)
    tr = paint.kernel_painter_play(g, f, cert, adversary="exhaustive")
    assert tr.winner == "Painter"


def test_kernel_painter_full_tree_small_line_graphs(rng):
    # the kernel strategy never loses over the full adversary tree
    checked = 0
    while checked < 5:
        n = rng.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.7]
        if not edges:
            continue
        b = MultiGraph.from_edges(n, [(u, v, 1) for u, v in edges])
        # use a bipartite-ish root: split vertices into two sides
        g = b.support()
        cert = kernel.is_f_KP(
            g, ListSizeFn(tuple(g.degree(v) + 1 for v in range(g.n))))
        if cert is None or cert.graph.n > 6:
            continue
        tr = paint.kernel_painter_play(
            cert.graph, cert.f, cert, adversary="exhaustive")
        assert tr.winner == "Painter"
        checked += 1


def test_kernel_painter_random_adversary():
    b = MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list())
    cert = kernel.galvin_orientation(b)
    tr = paint.kernel_painter_play(
        cert.graph, cert.f, cert, adversary="random:11")
    assert tr.winner == "Painter"


def test_kernel_painter_rejects_mismatched_cert():
    g = cycle_graph(5)
    f = ListSizeFn.constant(5, 3)
    cert = kernel.is_f_KP(cycle_graph(4), ListSizeFn.constant(4, 2))
    with pytest.raises(ValueError):
        paint.kernel_painter_play(g, f, cert)


# ---------------------------------------------------------------------------
# slow oracles: the set-based solvers that the bitmask solvers replaced,
# kept verbatim so that verdicts, failing lists and transcripts can be
# compared exactly

def _choosable_oracle(g, f, cap=9):
    if g.n > cap:
        raise ValueError(f"solver capped at {cap} vertices")
    sizes = [f(v) for v in range(g.n)]

    lists = [None] * g.n

    def colorable():
        order = sorted(range(g.n), key=lambda v: len(lists[v]))
        assign = {}

        def go(k):
            if k == g.n:
                return True
            v = order[k]
            for c in lists[v]:
                if all(assign.get(w) != c for w in g.neighbors(v)):
                    assign[v] = c
                    if go(k + 1):
                        return True
                    del assign[v]
            return False

        return go(0)

    def choose_lists(v, used):
        if v == g.n:
            return None if colorable() else [set(s) for s in lists]
        from itertools import combinations

        # candidate colors: all already-introduced colors plus enough
        # fresh ones; fresh colors are interchangeable, so only the
        # count of fresh colors matters
        for old in range(min(sizes[v], used) + 1):
            fresh = sizes[v] - old
            for old_set in combinations(range(used), old):
                lists[v] = set(old_set) | set(range(used, used + fresh))
                res = choose_lists(v + 1, used + fresh)
                if res is not None:
                    return res
        lists[v] = None
        return None

    bad = choose_lists(0, 0)
    if bad is None:
        return True, None
    return False, bad


def _paintable_oracle(g, f, cap=9, prune=True):
    if g.n > cap:
        raise ValueError(f"solver capped at {cap} vertices")
    adj = g.adjacency_masks()
    memo = {}
    _mask_vertices = paint._mask_vertices
    _subsets_of = paint._subsets_of
    _independent_submasks = paint._independent_submasks

    def uncolored_degree(v, mask):
        return bin(adj[v] & mask).count("1")

    def reduce_state(mask, tokens):
        # vertices with more tokens than uncolored neighbors are safe:
        # they can always be colored greedily at the end
        if not prune:
            return mask, tokens
        changed = True
        while changed:
            changed = False
            for v in _mask_vertices(mask):
                if tokens[v] >= uncolored_degree(v, mask) + 1:
                    mask &= ~(1 << v)
                    changed = True
        return mask, tokens

    def painter_wins(mask, tokens):
        mask, tokens = reduce_state(mask, tokens)
        if mask == 0:
            return True
        if any(tokens[v] == 0 for v in _mask_vertices(mask)):
            return False
        key = (mask, tuple(tokens[v] for v in _mask_vertices(mask)))
        if key in memo:
            return memo[key]
        result = True
        for listed in _subsets_of(mask):
            new_tokens = list(tokens)
            for v in _mask_vertices(listed):
                new_tokens[v] -= 1
            # painter answers with some maximal independent subset
            answer = False
            for paint_set in _independent_submasks(adj, listed):
                if painter_wins(mask & ~paint_set, new_tokens):
                    answer = True
                    break
            if not answer:
                result = False
                break
        memo[key] = result
        return result

    full = (1 << g.n) - 1
    tokens = [f(v) for v in range(g.n)]
    win = painter_wins(full, list(tokens))

    # the principal line, as _principal_line played it
    mask = full
    rounds = []
    while mask:
        if any(tokens[v] == 0 for v in _mask_vertices(mask)):
            return win, paint.GameTranscript(rounds, "Lister")
        chosen_listed = None
        chosen_paint = None
        for listed in sorted(_subsets_of(mask)):
            new_tokens = list(tokens)
            for v in _mask_vertices(listed):
                new_tokens[v] -= 1
            best_paint = None
            for paint_set in sorted(_independent_submasks(adj, listed)):
                if painter_wins(mask & ~paint_set, list(new_tokens)):
                    best_paint = paint_set
                    break
            if win:
                if best_paint is None:
                    continue
                chosen_listed, chosen_paint = listed, best_paint
                break
            if best_paint is None:
                chosen_listed = listed
                chosen_paint = sorted(_independent_submasks(adj, listed))[0]
                break
        if chosen_listed is None:
            chosen_listed = mask
            chosen_paint = sorted(_independent_submasks(adj, chosen_listed))[0]
        for v in _mask_vertices(chosen_listed):
            tokens[v] -= 1
        rounds.append((set(_mask_vertices(chosen_listed)),
                       set(_mask_vertices(chosen_paint))))
        mask &= ~chosen_paint
        if len(rounds) > 4 ** g.n:
            raise RuntimeError("runaway game")
    return win, paint.GameTranscript(rounds, "Painter")


def _list_colorings(g, lists):
    """Every proper coloring that picks each vertex's color from its list."""
    for colors in itertools.product(*(sorted(s) for s in lists)):
        if all(colors[u] != colors[v] for u, v in g.edge_list()):
            yield colors


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def _oracle_instances(rng):
    """Seeded random graphs with budgets 1-3, then relabelled classics at f=2."""
    for _ in range(50):
        n = rng.randint(1, 5)
        g = random_simple_graph(rng, n, p=0.6)
        yield g, ListSizeFn(tuple(rng.randint(1, 3) for _ in range(n)))
    # Erdos-Rubin-Taylor: K_{2,3} is 2-choosable, C5 and K_{2,4} are not
    # (one relabelling of K_{2,4}: the oracle takes near 2 s on each)
    for classic, copies in ((cycle_graph(5), 2), (complete_bipartite(2, 3), 2),
                            (complete_bipartite(2, 4), 1)):
        for _ in range(copies):
            g = _relabel(classic, rng)
            yield g, ListSizeFn.constant(g.n, 2)


def test_choosable_matches_oracle(rng):
    failures = 0
    for g, f in _oracle_instances(rng):
        ok, lists = paint.is_f_choosable(g, f)
        want_ok, want_lists = _choosable_oracle(g, f)
        assert (ok, lists) == (want_ok, want_lists), (g.edge_list(), f.values)
        if ok:
            continue
        failures += 1
        assert [list(s) for s in lists] == [list(s) for s in want_lists]
        # the failing assignment has the budgeted sizes and no coloring
        assert [len(s) for s in lists] == list(f.values)
        assert next(_list_colorings(g, lists), None) is None
    assert failures >= 10


def test_paintable_transcripts_match_oracle(rng):
    for g, f in _oracle_instances(rng):
        ok, tr = paint.is_f_paintable(g, f)
        for prune in (True, False):
            want_ok, want_tr = _paintable_oracle(g, f, prune=prune)
            assert ok == want_ok, (g.edge_list(), f.values, prune)
            assert tr.rounds == want_tr.rounds and tr.winner == want_tr.winner


# the bitmask solver before it settled the last vertex from one coloring
# of the rest: every list of the last vertex is a leaf, colored afresh

def _choosable_leafwise(g, f):
    """Exhaustive list-assignment check.

    Returns (True, None) or (False, failing assignment).  Assignments
    are enumerated in a canonical form — colors are introduced in
    ascending order without gaps — which covers every intersection
    pattern over a universe of size sum(f).  Lists and colors are
    bitmasks over that universe.  A graph that _greedy_reduce empties is
    choosable without enumeration.
    """
    if g.n > paint.CHOOSABLE_VERTICES:
        raise ValueError(f"solver capped at {paint.CHOOSABLE_VERTICES} vertices")
    n = g.n
    sizes = [f(v) for v in range(n)]
    adj = g.adjacency_masks()
    if not paint._greedy_reduce(adj, (1 << n) - 1, sizes):
        return True, None

    # every list of v has sizes[v] colors, so the coloring order and
    # each vertex's earlier-colored neighbors are fixed for the call
    order = sorted(range(n), key=lambda v: sizes[v])
    earlier = [[w for w in order[:k] if adj[v] >> w & 1]
               for k, v in enumerate(order)]
    lists = [0] * n
    color = [0] * n

    def colorable(k):
        if k == n:
            return True
        v = order[k]
        avail = lists[v]
        for w in earlier[k]:
            avail &= ~color[w]
        while avail:
            c = avail & -avail
            color[v] = c
            if colorable(k + 1):
                return True
            avail ^= c
        return False

    old_masks = {}

    def choose_lists(v, used):
        if v == n:
            if colorable(0):
                return None
            return [set(paint._mask_vertices(m)[::-1]) for m in lists]
        # candidate colors: all already-introduced colors plus enough
        # fresh ones; fresh colors are interchangeable, so only the
        # count of fresh colors matters
        for old in range(min(sizes[v], used) + 1):
            fresh = sizes[v] - old
            fresh_mask = ((1 << fresh) - 1) << used
            if (used, old) not in old_masks:
                old_masks[used, old] = [
                    sum(1 << c for c in old_set)
                    for old_set in itertools.combinations(range(used), old)
                ]
            for old_mask in old_masks[used, old]:
                lists[v] = old_mask | fresh_mask
                res = choose_lists(v + 1, used + fresh)
                if res is not None:
                    return res
        return None

    bad = choose_lists(0, 0)
    if bad is None:
        return True, None
    return False, bad


def _with_last(rng, prefix, budgets, last_budget, isolated=False):
    """The prefix graph, labels shuffled, with a new last vertex joined
    to a random subset of it (to none when isolated)."""
    m = prefix.n
    perm = list(range(m))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in prefix.edge_list()]
    if not isolated:
        edges += [(u, m) for u in range(m) if rng.random() < 0.6]
    return (SimpleGraph.from_edges(m + 1, edges),
            ListSizeFn(tuple(budgets) + (last_budget,)))


def _last_vertex_instances(rng):
    """Instances aimed at the shortcut for the last vertex: budget 0 or
    1 there, an isolated last vertex, a budget above the colors the
    other lists introduce, a K4 prefix at f=2 that has no coloring, and
    relabelled classics at f=2."""
    for i in range(240):
        m = rng.randint(0, 5)
        prefix = random_simple_graph(rng, m, p=rng.choice((0.3, 0.6, 0.9)))
        kind = i % 4
        if kind == 3:
            # at most m colors are introduced before the last vertex
            budgets = [rng.randint(0, 1) for _ in range(m)]
            yield _with_last(rng, prefix, budgets, m + rng.randint(0, 2))
            continue
        budgets = [rng.randint(1, 3) for _ in range(m)]
        if kind == 0:
            yield _with_last(rng, prefix, budgets, rng.randint(0, 1))
        elif kind == 1:
            yield _with_last(rng, prefix, budgets, rng.randint(0, 3), isolated=True)
        else:
            # K4 with lists of size 2, plus maybe one more vertex
            k4 = complete_graph(4)
            if rng.random() < 0.5:
                k4 = SimpleGraph.from_edges(5, k4.edge_list() + [(rng.randrange(4), 4)])
            yield _with_last(rng, k4, [2] * k4.n, rng.randint(0, 4))
    for classic, copies in ((cycle_graph(5), 4), (complete_bipartite(2, 3), 4),
                            (complete_bipartite(2, 4), 1)):
        for _ in range(copies):
            g = _relabel(classic, rng)
            yield g, ListSizeFn.constant(g.n, 2)


def test_choosable_matches_leafwise(rng):
    outcomes = set()
    for g, f in _last_vertex_instances(rng):
        got = paint.is_f_choosable(g, f)
        want = _choosable_leafwise(g, f)
        assert got == want, (g.edge_list(), f.values)
        if not got[0]:
            assert [list(s) for s in got[1]] == [list(s) for s in want[1]]
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_choosable_fails_at_the_all_fresh_list_when_the_rest_has_no_coloring():
    # the last vertex (5 colors, one neighbor) never fails where the K4
    # is colorable, so the first failing leaf lies under the first K4
    # lists of size 2 with no coloring, and holds the all-fresh list
    g = SimpleGraph.from_edges(5, complete_graph(4).edge_list() + [(0, 4)])
    f = ListSizeFn((2, 2, 2, 2, 5))
    ok, lists = paint.is_f_choosable(g, f)
    assert (ok, lists) == _choosable_leafwise(g, f)
    used = max(max(s) for s in lists[:4]) + 1
    assert not ok and lists[4] == set(range(used, used + 5))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.sampled_from(("low", "isolated", "high", "k4")),
       st.data())
def test_choosable_matches_leafwise_fuzz(m, kind, data):
    if kind == "k4":
        m = 4
        edges = list(complete_graph(4).edge_list())
        budgets = [2] * 4
    else:
        pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
        top = 1 if kind == "high" else 3
        budgets = data.draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    if kind != "isolated":
        edges += [(u, m) for u in sorted(data.draw(st.sets(st.integers(0, m - 1))))] if m else []
    last = {"low": st.integers(0, 1), "isolated": st.integers(0, 3),
            "high": st.integers(m, m + 2), "k4": st.integers(0, 4)}[kind]
    g = SimpleGraph.from_edges(m + 1, edges)
    f = ListSizeFn(tuple(budgets) + (data.draw(last),))
    got = paint.is_f_choosable(g, f)
    assert got == _choosable_leafwise(g, f), (g.edge_list(), f.values)
