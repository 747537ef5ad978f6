import itertools
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paint_search_oracle
from colorcert import alon_tarsi, catalog, graphs, kernel, paint, structure
from colorcert.graphs import (
    Digraph, ListSizeFn, MultiGraph, SimpleGraph, complete_bipartite, complete_graph,
    cycle_graph, path_graph,
)
from colorcert.kernel import find_kernel
from colorcert.paint import (
    PAINTABLE_VERTICES, RANDOM_GAMES, GameTranscript, _subsets_of,
    is_f_choosable, is_f_paintable,
)
from conftest import neighbors, random_simple_graph


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
        if not g.edge_list():
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


def test_the_random_kernel_painter_wins_on_k66():
    # 36 line-graph vertices; a search through every vertex set by size
    # gave no answer here within a minute
    b = MultiGraph.from_edges(12, complete_bipartite(6, 6).edge_list())
    cert = kernel.galvin_orientation(b)
    start = time.perf_counter()
    tr = paint.kernel_painter_play(cert.graph, cert.f, cert, adversary="random:1")
    assert tr.winner == "Painter" and time.perf_counter() - start < 30


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
                if all(assign.get(w) != c for w in neighbors(g, v)):
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


def _mask_vertices(mask):
    """The vertices of mask, highest first."""
    return [v for v in reversed(range(mask.bit_length())) if mask >> v & 1]


def _paintable_oracle(g, f, cap=9, prune=True):
    if g.n > cap:
        raise ValueError(f"solver capped at {cap} vertices")
    adj = g.adjacency_masks()
    memo = {}
    _subsets_of = paint._subsets_of

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


def _enumerated(g, f):
    """The canonical enumeration alone, as `is_f_choosable` runs it
    when no cheaper route decides."""
    return paint._canonical_search(g.adjacency_masks(), list(f.values))


def test_choosable_matches_oracle(rng):
    failures = 0
    for g, f in _oracle_instances(rng):
        ok, lists = _enumerated(g, f)
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


# the packed-state solver's predecessors, kept verbatim: the token-list
# game search, which lists every subset and reduces before each memo
# lookup, and the kernel sweep, which searches a kernel at every listing

def _vertex_table(n):
    """_mask_vertices(m) for every mask m over n vertices, indexed by m."""
    table = [[]]
    for m in range(1, 1 << n):
        top = m.bit_length() - 1
        table.append([top] + table[m ^ (1 << top)])
    return table


def _independent_submasks(adj, mask):
    """All maximal independent subsets of the vertex mask."""
    results = []

    def grow(cand, chosen):
        if not cand:
            # maximal if no vertex of mask outside chosen is addable
            results.append(chosen)
            return
        v = cand.bit_length() - 1
        rest = cand & ~(1 << v)
        # branch: take v
        grow(rest & ~adj[v], chosen | (1 << v))
        # branch: skip v, but only if v stays dominated later --
        # cheap filter: skip only when some chosen/future vertex can
        # dominate; over-generation is harmless, so just recurse
        if rest:
            grow(rest, chosen)

    grow(mask, 0)
    # deduplicate and drop non-maximal sets
    results = set(results)
    maximal = [
        r for r in results
        if not any(other != r and other & r == r for other in results)
    ]
    return maximal


def _greedy_reduce(adj, mask, budget):
    """Drop vertices of mask whose budget exceeds their remaining degree.

    Such a vertex can always be colored last, greedily, whatever lists
    or moves the rest of the game brings, so a graph that reduces to
    the empty mask is budget-choosable and budget-paintable.  Dropping
    a vertex only lowers the degrees of the others, so the result does
    not depend on the order of removal.
    """
    pending = mask
    while pending:
        bit = pending & -pending
        pending ^= bit
        v = bit.bit_length() - 1
        if budget[v] > (adj[v] & mask).bit_count():
            mask ^= bit
            pending |= adj[v] & mask
    return mask


def _paintable_token_lists(g, f):
    """Exact value of the online game, with a sample winning line.

    Returns (paintable, transcript).  The transcript follows one
    principal line: the winning side plays its first winning move in a
    deterministic order, the losing side its first legal move.
    """
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    adj = g.adjacency_masks()
    verts = _vertex_table(g.n)
    answers = [None] * (1 << g.n)
    memo = {}

    def painter_answers(listed):
        if answers[listed] is None:
            answers[listed] = _independent_submasks(adj, listed)
        return answers[listed]

    def painter_wins(mask, tokens):
        mask = _greedy_reduce(adj, mask, tokens)
        if mask == 0:
            return True
        left = [tokens[v] for v in verts[mask]]
        if 0 in left:
            return False
        key = (mask, tuple(left))
        if key in memo:
            return memo[key]
        result = True
        for listed in _subsets_of(mask):
            new_tokens = list(tokens)
            for v in verts[listed]:
                new_tokens[v] -= 1
            # painter answers with some maximal independent subset
            if not any(painter_wins(mask & ~paint, new_tokens)
                       for paint in painter_answers(listed)):
                result = False
                break
        memo[key] = result
        return result

    full = (1 << g.n) - 1
    tokens = [f(v) for v in range(g.n)]
    win = painter_wins(full, list(tokens))
    transcript = _principal_line(g.n, verts, tokens, painter_wins,
                                 painter_answers, win)
    return win, transcript


def _principal_line(n, verts, tokens, painter_wins, painter_answers, painter_side):
    """Play one game with the winner playing optimally."""
    mask = (1 << n) - 1
    tokens = list(tokens)
    rounds = []
    while mask:
        if any(tokens[v] == 0 for v in verts[mask]):
            return GameTranscript(rounds, "Lister")
        chosen_listed = None
        chosen_paint = None
        for listed in sorted(_subsets_of(mask)):
            new_tokens = list(tokens)
            for v in verts[listed]:
                new_tokens[v] -= 1
            best_paint = None
            for paint in sorted(painter_answers(listed)):
                if painter_wins(mask & ~paint, list(new_tokens)):
                    best_paint = paint
                    break
            if painter_side:
                if best_paint is None:
                    continue  # cannot happen when painter wins overall
                chosen_listed, chosen_paint = listed, best_paint
                break
            if best_paint is None:
                # lister found a refutation; painter answers best effort
                chosen_listed = listed
                chosen_paint = min(painter_answers(listed))
                break
        if chosen_listed is None:
            # no winning lister move from here (prune shrank the state);
            # fall back to listing everything
            chosen_listed = mask
            chosen_paint = min(painter_answers(chosen_listed))
        for v in verts[chosen_listed]:
            tokens[v] -= 1
        rounds.append((set(verts[chosen_listed]), set(verts[chosen_paint])))
        mask &= ~chosen_paint
        if len(rounds) > 4 ** n:
            raise RuntimeError("runaway game")
    return GameTranscript(rounds, "Painter")


def _kernel_play_per_listing(g, f, cert, adversary="exhaustive"):
    """Play the online game with the kernel strategy for the painter.

    The painter always colors a kernel of the certificate digraph
    induced on the listed set (restricted to uncolored vertices).
    `adversary` is "exhaustive" (sweep every lister line; returns the
    first transcript, raising if any line is lost) or "random:<seed>"
    (play RANDOM_GAMES random games).  Returns a painter-winning transcript.
    """
    d = cert.digraph
    if d.n != g.n:
        raise ValueError("certificate does not match the graph")

    def play_line(moves):
        """Run one game; moves is a callable state -> listed set."""
        tokens = [f(v) for v in range(g.n)]
        uncolored = set(range(g.n))
        rounds = []
        while uncolored:
            listed = moves(uncolored, tokens)
            for v in listed:
                tokens[v] -= 1
            kernel = find_kernel(d, listed)
            if kernel is None:
                raise RuntimeError("certificate digraph lost its kernel")
            for v in kernel:
                uncolored.discard(v)
            rounds.append((set(listed), set(kernel)))
            if any(tokens[v] == 0 for v in uncolored):
                return GameTranscript(rounds, "Lister")
        return GameTranscript(rounds, "Painter")

    if adversary == "exhaustive":
        # the painter's reply is deterministic, so game states repeat;
        # a state is the uncolored set with its remaining tokens
        visited = set()

        def sweep(uncolored, tokens):
            if not uncolored:
                return
            state = (frozenset(uncolored),
                     tuple(tokens[v] for v in sorted(uncolored)))
            if state in visited:
                return
            visited.add(state)
            verts = sorted(uncolored)
            for size in range(1, len(verts) + 1):
                for listed in combinations(verts, size):
                    new_tokens = list(tokens)
                    for v in listed:
                        new_tokens[v] -= 1
                    kernel = find_kernel(d, listed)
                    if kernel is None:
                        raise RuntimeError("certificate digraph lost its kernel")
                    remaining = uncolored - set(kernel)
                    if any(new_tokens[v] <= 0 for v in remaining):
                        # an unpainted vertex hit zero tokens
                        raise AssertionError(
                            f"kernel painter lost after listing {sorted(listed)}"
                        )
                    sweep(remaining, new_tokens)

        sweep(set(range(g.n)), [f(v) for v in range(g.n)])
        # reconstruct one full line for the transcript
        return play_line(lambda unc, _tokens: sorted(unc))

    if adversary.startswith("random:"):
        seed = int(adversary.split(":", 1)[1])
        rng = random.Random(seed)
        last = None
        for _ in range(RANDOM_GAMES):

            def moves(unc, _tokens):
                verts = sorted(unc)
                k = rng.randint(1, len(verts))
                return rng.sample(verts, k)

            last = play_line(moves)
            if last.winner != "Painter":
                raise AssertionError("kernel painter lost a random game")
        return last

    raise ValueError(f"unknown adversary {adversary!r}")


def _outcome(tr):
    return tr.rounds, tr.winner


def _components(rng, sizes, p=0.7):
    """Disjoint random graphs of these sizes, labels shuffled together."""
    edges, off = [], 0
    for k in sizes:
        part = random_simple_graph(rng, k, p=p)
        edges += [(u + off, v + off) for u, v in part.edge_list()]
        off += k
    return _relabel(SimpleGraph.from_edges(off, edges), rng)


def _line_k33():
    return graphs.line_graph(MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))[0]


def _packed_search_instances(rng):
    """Instances aimed at the packed search: 2-3 components, so that some
    listed sets are disconnected; budgets at the edges of the field width
    (1, 3, 4, 7, 8) on dense graphs where they bind; 7-9 vertices,
    relabelled L(K_{3,3}) and K_{2*3} at f=3 among them."""
    for _ in range(40):
        g = _components(rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 3))])
        yield "components", g, ListSizeFn(tuple(rng.randint(1, 3) for _ in range(g.n)))
    for _ in range(30):
        n = rng.randint(4, 9)
        g = random_simple_graph(rng, n, p=rng.uniform(0.7, 1.0))
        yield "width", g, ListSizeFn(tuple(
            rng.choice((3, 4, 7, 8, 8)) if g.degree(v) >= 6 else rng.choice((1, 3, 4))
            for v in range(n)))
    for _ in range(6):
        n = rng.randint(7, 8)
        g = random_simple_graph(rng, n, p=0.5)
        yield "large", g, ListSizeFn(tuple(max(g.degree(v), 1) for v in range(n)))
    yield "large", _relabel(_line_k33(), rng), ListSizeFn.constant(9, 3)
    yield "large", _relabel(graphs.complete_multipartite_2t(3), rng), ListSizeFn.constant(6, 3)
    yield "large", _relabel(graphs.complete_multipartite_2t(3), rng), ListSizeFn.constant(6, 2)


def test_paintable_matches_the_token_list_search(rng):
    seen = set()
    for kind, g, f in _packed_search_instances(rng):
        ok, tr = paint.is_f_paintable(g, f)
        want_ok, want_tr = _paintable_token_lists(g, f)
        assert (ok, _outcome(tr)) == (want_ok, _outcome(want_tr)), (g.edge_list(), f.values)
        seen.add((kind, ok))
    assert seen == {(kind, ok) for kind in ("components", "width", "large")
                    for ok in (True, False)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_paintable_matches_the_token_list_search_fuzz(sizes, data):
    # components of the given sizes, sometimes joined by one edge, with
    # budgets at the edges of the field width
    n = sum(sizes)
    edges, off = [], 0
    for k in sizes:
        pairs = [(u + off, v + off) for u in range(k) for v in range(u + 1, k)]
        edges += sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
        off += k
    if len(sizes) > 1 and data.draw(st.booleans()):
        edges.append((data.draw(st.integers(0, sizes[0] - 1)),
                      data.draw(st.integers(sizes[0], n - 1))))
    perm = data.draw(st.permutations(range(n)))
    g = SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    f = ListSizeFn(tuple(data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 7, 8)),
                                            min_size=n, max_size=n))))
    ok, tr = paint.is_f_paintable(g, f)
    want_ok, want_tr = _paintable_token_lists(g, f)
    assert (ok, _outcome(tr)) == (want_ok, _outcome(want_tr)), (g.edge_list(), f.values)


def test_maximal_independent_sets_match_the_subset_search(rng):
    for _ in range(40):
        n = rng.randint(0, 7)
        g = random_simple_graph(rng, n, p=rng.uniform(0.1, 0.9))
        adj = g.adjacency_masks()
        table = paint._maximal_independent_sets(adj)
        assert len(table) == 1 << n
        for mask, found in enumerate(table):
            assert sorted(found) == sorted(_independent_submasks(adj, mask))
            sizes = [p.bit_count() for p in found]
            assert sizes == sorted(sizes, reverse=True)


def test_a_painter_win_lists_and_paints_one_vertex_per_round(rng):
    # the lowest vertex alone, painted, wins by heredity, so no search
    # picks a painter win's line
    wins = 0
    instances = list(_oracle_instances(rng))
    instances += [(g, f) for _, g, f in _packed_search_instances(rng)]
    for g, f in instances:
        ok, tr = paint.is_f_paintable(g, f)
        if ok:
            assert tr.rounds == [({v}, {v}) for v in range(g.n)], (g.edge_list(), f.values)
            assert tr.winner == "Painter"
            wins += 1
    assert wins >= 40


def test_a_painter_win_line_is_what_the_lowest_vertex_move_plays(rng):
    # the line is written down, not played; it equals `_play` with the
    # move it replaced, on both yes exits: the degree route and the search
    instances = list(_oracle_instances(rng))
    instances += [(g, f) for _, g, f in _packed_search_instances(rng)]
    for _ in range(200):
        g = random_simple_graph(rng, rng.randint(1, 8), p=rng.uniform(0.2, 0.8))
        cut = rng.choice((0, 1))
        instances.append((g, ListSizeFn(tuple(max(d - rng.randint(0, cut), 1)
                                              for d in g.degrees()))))
    wins = {True: 0, False: 0}
    for g, f in instances:
        ok, tr = paint.is_f_paintable(g, f)
        if ok:
            tokens, width = paint._pack(list(f.values))
            lowest = paint._play(tokens, width, (1 << g.n) - 1,
                                 lambda mask, _tokens: (mask & -mask,) * 2)
            assert tr == lowest, (g.edge_list(), f.values)
            wins[bool(graphs.degree_route(g.adjacency_masks(), list(f.values)))] += 1
    assert min(wins.values()) >= 20, wins


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_verdicts_do_not_change_under_relabelling(n, data):
    # budgets up to 3 on 5 vertices, up to 2 on 6, so that the offline
    # search stays within a few milliseconds
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    budget = data.draw(st.lists(st.integers(1, 3 if n <= 5 else 2), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    moved = [0] * n
    for v, k in enumerate(budget):
        moved[perm[v]] = k
    g, f = SimpleGraph.from_edges(n, edges), ListSizeFn(tuple(budget))
    h = SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    for solve in (is_f_paintable, is_f_choosable):
        assert solve(g, f)[0] == solve(h, ListSizeFn(tuple(moved)))[0], (edges, budget, perm)


@pytest.mark.parametrize("budget", [(-1, 2, 2), (0, 2, 2), (2, 2, 0), (2, -3, 2)])
def test_a_budget_below_one_loses_before_the_first_round(budget):
    ok, tr = paint.is_f_paintable(path_graph(3), ListSizeFn(budget))
    assert not ok and tr.to_json() == {"rounds": [], "winner": "Lister"}


def test_a_budget_below_one_loses_a_kernel_game():
    # a vertex that starts without a token loses once it is left
    # uncolored, against the random lister as in the sweep
    cert = kernel.galvin_orientation(
        MultiGraph.from_edges(6, complete_bipartite(3, 3).edge_list()))
    for low in (0, -1):
        f = ListSizeFn((low,) + cert.f.values[1:])
        with pytest.raises(AssertionError, match="lost a random game"):
            paint.kernel_painter_play(cert.graph, f, cert, adversary="random:2")
        with pytest.raises(AssertionError, match="lost after listing"):
            paint.kernel_painter_play(cert.graph, f, cert, adversary="exhaustive")


def test_an_unlisted_vertex_without_a_token_loses_a_kernel_game():
    # vertex 0 is a sink, so every listing that holds it paints it; the
    # random lister still wins by leaving it unlisted and uncolored
    cert = kernel.KPCertificate(path_graph(2), ListSizeFn((1, 2)), Digraph.from_arcs(2, [(1, 0)]))
    assert cert.check()
    for low in (0, -1):
        with pytest.raises(AssertionError, match="lost a random game"):
            paint.kernel_painter_play(cert.graph, ListSizeFn((low, 2)), cert,
                                      adversary="random:1")


def test_the_kernel_sweep_loses_on_an_unlisted_vertex_without_a_token():
    # two isolated vertices: listing vertex 1 alone leaves vertex 0
    # uncolored with no token, in the sweep as in a random game
    g = SimpleGraph.from_edges(2, [])
    cert = kernel.KPCertificate(g, ListSizeFn((1, 1)), Digraph.from_arcs(2, []))
    assert cert.check()
    for low in (0, -1):
        f = ListSizeFn((low, 1))
        with pytest.raises(AssertionError, match="lost a random game"):
            paint.kernel_painter_play(g, f, cert, adversary="random:1")
        with pytest.raises(AssertionError, match=r"lost after listing \[1\]"):
            paint.kernel_painter_play(g, f, cert, adversary="exhaustive")


def test_kernel_adversaries_agree_on_budgets_below_one(rng):
    # one or two budgets lowered to 0 or -1: the sweep matches the
    # per-listing sweep, and the random lister wins exactly when it does
    lone = kernel.KPCertificate(path_graph(1), ListSizeFn((1,)), Digraph.from_arcs(1, []))
    certs = _kernel_certificates(rng)
    seen = {"[0]": 0, "[1]": 0, "Painter": 0}
    for cert in [lone] + [next(certs) for _ in range(40)]:
        g, values = cert.graph, list(cert.f.values)
        for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 2))):
            values[v] = rng.choice((0, -1))
        f = ListSizeFn(tuple(values))
        got = _sweep(paint.kernel_painter_play, g, f, cert)
        assert got == _sweep(_kernel_play_per_listing, g, f, cert), (g.edge_list(), f.values)
        won = _sweep(paint.kernel_painter_play, g, f, cert, adversary="random:3")
        assert (got[0] == "AssertionError") == (won[0] == "AssertionError"), (g.edge_list(), f.values)
        outcome = got[1].split("listing ")[-1] if got[0] == "AssertionError" else got[1]
        seen[outcome] = seen.get(outcome, 0) + 1
    assert min(seen[k] for k in ("[0]", "[1]", "Painter")) >= 1, seen


def test_choosable_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="vertex 0 has a negative list size -1"):
        paint.is_f_choosable(path_graph(1), ListSizeFn((-1,)))
    with pytest.raises(ValueError, match="vertex 2 "):
        paint.is_f_choosable(path_graph(3), ListSizeFn((2, 2, -2)))
    # an empty list is allowed and fails
    assert not paint.is_f_choosable(path_graph(3), ListSizeFn((2, 0, 2)))[0]


def test_choosable_is_capped_before_any_route():
    # the nested lists of K_10 at f=1 fail, and would answer first
    with pytest.raises(ValueError, match=f"capped at {PAINTABLE_VERTICES} vertices"):
        paint.is_f_choosable(complete_graph(PAINTABLE_VERTICES + 1),
                             ListSizeFn.constant(PAINTABLE_VERTICES + 1, 1))


def _sweep(play, g, f, cert, adversary="exhaustive"):
    """The outcome of a kernel-painter play: its transcript, or the text
    of the error it raised."""
    try:
        tr = play(g, f, cert, adversary=adversary)
    except (AssertionError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return _outcome(tr)


def _kernel_certificates(rng):
    """Galvin certificates of small bipartite multigraphs, and is_f_KP
    certificates of small graphs at their degree budgets."""
    while True:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        records = [(i, a + j, rng.randint(1, 2)) for i in range(a) for j in range(b)
                   if rng.random() < 0.8]
        if records and sum(m for _, _, m in records) <= 6:
            yield kernel.galvin_orientation(MultiGraph.from_edges(a + b, records))
        n = rng.randint(2, 5)
        g = random_simple_graph(rng, n, p=0.6)
        cert = kernel.is_f_KP(g, ListSizeFn(tuple(max(g.degree(v), 1) for v in range(n))))
        if cert is not None:
            yield cert


def test_kernel_sweep_matches_the_per_listing_sweep(rng):
    outcomes = {"Painter": 0, "AssertionError": 0}
    certs = _kernel_certificates(rng)
    for _ in range(60):
        cert = next(certs)
        g, values = cert.graph, list(cert.f.values)
        assert cert.check()
        for f in (cert.f, None):
            if f is None:
                # one budget lowered, so the sweep may lose
                v = rng.randrange(g.n)
                values[v] -= rng.randint(1, values[v])
                f = ListSizeFn(tuple(values))
            got = _sweep(paint.kernel_painter_play, g, f, cert)
            assert got == _sweep(_kernel_play_per_listing, g, f, cert), (
                g.edge_list(), f.values)
            outcomes[got[1] if got[1] == "Painter" else got[0]] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_kernel_sweep_raises_like_the_per_listing_sweep_without_a_kernel():
    # the directed triangle has no kernel, so the sweep stops at the
    # first listing of all three vertices
    from colorcert.kernel import KPCertificate

    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    cert = KPCertificate(cycle_graph(3), ListSizeFn((3, 3, 3)), tri)
    for adversary in ("exhaustive", "random:4"):
        got = _sweep(paint.kernel_painter_play, cert.graph, cert.f, cert, adversary)
        assert got == ("RuntimeError", "certificate digraph lost its kernel")
        assert got == _sweep(_kernel_play_per_listing, cert.graph, cert.f, cert, adversary)


def test_kernel_play_finds_each_kernel_once(rng, monkeypatch):
    calls = []

    def counting(d, s=None):
        calls.append(frozenset(s))
        return find_kernel(d, s)

    monkeypatch.setattr(paint, "find_kernel", counting)
    certs = _kernel_certificates(rng)
    for _ in range(12):
        cert = next(certs)
        for adversary in ("exhaustive", "random:5"):
            calls.clear()
            tr = paint.kernel_painter_play(cert.graph, cert.f, cert, adversary=adversary)
            assert _outcome(tr) == _outcome(_kernel_play_per_listing(
                cert.graph, cert.f, cert, adversary=adversary))
            assert len(calls) == len(set(calls)) < 1 << cert.graph.n


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
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    n = g.n
    sizes = [f(v) for v in range(n)]
    adj = g.adjacency_masks()
    if not _greedy_reduce(adj, (1 << n) - 1, sizes):
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
            return [set(_mask_vertices(m)[::-1]) for m in lists]
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


# the solver before it tried the nested lists and the online game: the
# canonical enumeration behind the greedy shortcut, as `is_f_choosable`
# ran it, with the package names it read qualified by `paint.`

def _choosable_enumerating(g, f):
    """Exhaustive list-assignment check.

    Returns (True, None) or (False, failing assignment).  Assignments
    are enumerated in a canonical form — colors are introduced in
    ascending order without gaps — which covers every intersection
    pattern over a universe of size sum(f).  Lists and colors are
    bitmasks over that universe.  A graph that _greedy_reduce empties is
    choosable without enumeration.

    The lists of the last vertex are not enumerated.  Once every other
    list is fixed, with `used` colors introduced, the last vertex gets
    a spare color that no other list can hold and the lists are colored
    once; this colors G - last.  If G - last has no coloring, no list
    of the last vertex helps, and the first leaf below, the all-fresh
    list, is returned.  Otherwise let `blocked` be the colors that this
    coloring puts on the neighbors of the last vertex.  A list with a
    color outside `blocked` extends the coloring, and every fresh color
    is outside it.  So only the all-old lists inside `blocked` can fail.
    They come in the same lex order as the old lists of the enumeration,
    and each is tested in turn; the first that fails is the first
    failing leaf.  A budget above `used` leaves no all-old list.  A
    negative budget raises ValueError.
    """
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    n = g.n
    sizes = [f(v) for v in range(n)]
    for v, k in enumerate(sizes):
        if k < 0:
            raise ValueError(f"vertex {v} has a negative list size {k}")
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    if not paint._greedy_reduce(adj, full, *paint._pack(sizes), full)[0]:
        return True, None

    # every list of v has sizes[v] colors, so the coloring order and
    # each vertex's earlier-colored neighbors are fixed for the call
    order = sorted(range(n), key=lambda v: sizes[v])
    earlier = [[w for w in order[:k] if adj[v] >> w & 1]
               for k, v in enumerate(order)]
    lists = [0] * n
    color = [0] * n
    last = n - 1
    spare = 1 << sum(sizes)

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

    def failing():
        return [set(_mask_vertices(m)[::-1]) for m in lists]

    def settle_last(used):
        """The first failing list of the last vertex, else None."""
        k = sizes[last]
        lists[last] = spare
        if not colorable(0):
            lists[last] = ((1 << k) - 1) << used
            return failing()
        blocked = 0
        for w in _mask_vertices(adj[last]):
            blocked |= color[w]
        old = [1 << c for c in reversed(_mask_vertices(blocked))]
        for old_set in combinations(old, k):
            lists[last] = sum(old_set)
            if not colorable(0):
                return failing()
        return None

    old_masks = {}

    def choose_lists(v, used):
        if v == last:
            return settle_last(used)
        # candidate colors: all already-introduced colors plus enough
        # fresh ones; fresh colors are interchangeable, so only the
        # count of fresh colors matters
        for old in range(min(sizes[v], used) + 1):
            fresh = sizes[v] - old
            fresh_mask = ((1 << fresh) - 1) << used
            if (used, old) not in old_masks:
                old_masks[used, old] = [
                    sum(1 << c for c in old_set)
                    for old_set in combinations(range(used), old)
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
        got = _enumerated(g, f)
        want = _choosable_leafwise(g, f)
        assert got == want, (g.edge_list(), f.values)
        if not got[0]:
            assert [list(s) for s in got[1]] == [list(s) for s in want[1]]
        outcomes.add(got[0])
    assert outcomes == {True, False}


def _check_all_fresh(rest, solve, oracle):
    """The last vertex (5 colors, one neighbor) never fails where the
    rest is colorable, so the first failing leaf lies under the first
    lists of size 2 on the rest with no coloring, and holds the
    all-fresh list."""
    m = rest.n
    g = SimpleGraph.from_edges(m + 1, rest.edge_list() + [(0, m)])
    f = ListSizeFn((2,) * m + (5,))
    ok, lists = solve(g, f)
    assert (ok, lists) == oracle(g, f)
    used = max(max(s) for s in lists[:m]) + 1
    assert not ok and lists[m] == set(range(used, used + 5))


def test_choosable_fails_at_the_all_fresh_list_when_the_rest_has_no_coloring():
    _check_all_fresh(complete_graph(4), _enumerated, _choosable_leafwise)


def test_choosable_reaches_the_all_fresh_list_past_its_routes():
    # nested lists of size 2 color K_{2,4}, and it is not 2-paintable,
    # so is_f_choosable itself reaches the enumeration here; the
    # leafwise oracle takes some 15 s on it, the enumerating solver 0.2 s
    _check_all_fresh(complete_bipartite(2, 4), paint.is_f_choosable, _choosable_enumerating)


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
    got = _enumerated(g, f)
    assert got == _choosable_leafwise(g, f), (g.edge_list(), f.values)


def _nested_lists(g, f):
    """The lists {0..f(v)-1}, when they have no coloring, else None."""
    lists = [set(range(f(v))) for v in range(g.n)]
    return None if next(_list_colorings(g, lists), None) is not None else lists


def _check_choosable_spec(g, f):
    """is_f_choosable returns the failing nested lists when there are
    some, else what the enumerating solver returns."""
    got = paint.is_f_choosable(g, f)
    nested = _nested_lists(g, f)
    want = (False, nested) if nested is not None else _choosable_enumerating(g, f)
    assert got == want, (g.edge_list(), f.values)
    if not got[0]:
        assert [len(s) for s in got[1]] == list(f.values)
        assert next(_list_colorings(g, got[1]), None) is None
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.data())
def test_choosable_meets_its_spec_fuzz(n, data):
    # budgets up to 3 on 5 vertices, up to 2 on 6 and 7, so that the
    # enumerating solver stays within a few milliseconds
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    budget = data.draw(st.lists(st.integers(0, 3 if n <= 5 else 2), min_size=n, max_size=n))
    _check_choosable_spec(SimpleGraph.from_edges(n, edges), ListSizeFn(tuple(budget)))


def test_choosable_meets_its_spec_on_relabelled_classics(rng):
    outcomes = set()
    for classic, k, copies in ((cycle_graph(5), 2, 3), (complete_bipartite(2, 3), 2, 3),
                               (complete_bipartite(2, 4), 2, 1), (complete_graph(4), 3, 2)):
        for _ in range(copies):
            g = _relabel(classic, rng)
            outcomes.add(_check_choosable_spec(g, ListSizeFn.constant(g.n, k))[0])
    assert outcomes == {True, False}


def _theta(rng):
    """θ_{2,2,4}, relabelled: two vertices joined by internally disjoint
    paths of 2, 2 and 4 edges."""
    return _relabel(SimpleGraph.from_edges(
        7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)]), rng)


def _k3_join_e3():
    return SimpleGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 2)] + [(u, v) for u in range(3) for v in range(3, 6)])


def _refuse_enumeration(adj, sizes):
    raise AssertionError(f"enumerated {adj} at {sizes}")


@pytest.mark.parametrize("g, budget", [
    (cycle_graph(5), (2,) * 5),
    (SimpleGraph.from_edges(6, [e for e in complete_graph(6).edge_list() if e != (0, 1)]),
     (4,) * 6),
], ids=["c5", "k6-minus-edge"])
def test_choosable_settles_no_by_the_nested_lists(g, budget, monkeypatch):
    monkeypatch.setattr(paint, "_canonical_search", _refuse_enumeration)
    ok, lists = paint.is_f_choosable(g, ListSizeFn(budget))
    assert not ok and lists == [set(range(k)) for k in budget]


@pytest.mark.parametrize("g, budget", [
    (complete_bipartite(2, 3), (2,) * 5),
    (_k3_join_e3(), (4, 4, 4, 3, 3, 3)),
], ids=["k23", "k3-join-e3"])
def test_choosable_settles_yes_by_the_online_game(g, budget, monkeypatch):
    monkeypatch.setattr(paint, "_canonical_search", _refuse_enumeration)
    assert paint.is_f_paintable(g, ListSizeFn(budget))[0]
    assert paint.is_f_choosable(g, ListSizeFn(budget)) == (True, None)


def test_choosable_enumerates_what_the_routes_leave(rng, monkeypatch):
    # θ_{2,2,4} is 2-choosable but not 2-paintable, and the nested lists
    # of size 2 color it, so only the enumeration settles it
    calls = []
    g = _theta(rng)
    f = ListSizeFn.constant(7, 2)
    assert not paint.is_f_paintable(g, f)[0]
    search = paint._canonical_search
    monkeypatch.setattr(paint, "_canonical_search",
                        lambda adj, sizes: calls.append(sizes) or search(adj, sizes))
    assert paint.is_f_choosable(g, f) == (True, None)
    assert calls == [[2] * 7]


def test_the_exhaustive_kernel_sweep_is_capped():
    n = paint.KERNEL_SWEEP_VERTICES + 1
    g = SimpleGraph.from_edges(n, [])
    f = ListSizeFn.constant(n, 1)
    cert = kernel.KPCertificate(g, f, Digraph.from_arcs(n, []))
    with pytest.raises(ValueError, match=f"capped at {n - 1} vertices"):
        paint.kernel_painter_play(g, f, cert)


# ---------------------------------------------------------------------------
# the degree route: the solvers answer as they do without it

# blocks as (vertex count, edges); a glued graph is made of the first
# kind, and a near miss has one block of the second
_GALLAI_BLOCKS = [(k, list(combinations(range(k), 2))) for k in (2, 3, 4)] + [
    (k, [(i, (i + 1) % k) for i in range(k)]) for k in (3, 5, 7)]
_NEAR_MISSES = [
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    (6, [(i, (i + 1) % 6) for i in range(6)]),
    (4, [e for e in combinations(range(4), 2) if e != (0, 3)]),
    # theta graphs: θ_{2,2,2} = K_{2,3}, and θ_{1,2,3}
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    (5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]),
]


@st.composite
def _glued_blocks(draw, near_miss):
    """A connected graph on at most 8 vertices, each block glued at one
    vertex of what is built so far, labels drawn.  Its blocks are
    cliques and odd cycles, so it is a Gallai tree, except that with
    near_miss the first is an even cycle, K_4 minus an edge or a theta
    graph."""
    pieces = [draw(st.sampled_from(_NEAR_MISSES))] if near_miss else []
    pieces += draw(st.lists(st.sampled_from(_GALLAI_BLOCKS), min_size=1, max_size=4))
    n, edges = pieces[0][0], list(pieces[0][1])
    for k, block in pieces[1:]:
        if n + k - 1 > 8:
            continue
        at = draw(st.integers(0, n - 1))
        where = [at] + list(range(n, n + k - 1))
        edges += [(where[u], where[v]) for u, v in block]
        n += k - 1
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _solvers(g, f):
    """is_f_paintable, is_f_choosable while its enumeration stays small,
    and is_f_KP's certificate document while its search does."""
    cheap_choose = graphs.degree_route(g.adjacency_masks(), list(f.values)) or sum(f.values) <= 12
    cert = kernel.is_f_KP(g, f) if len(g.edge_list()) <= 10 else None
    return (paint.is_f_paintable(g, f), cheap_choose and paint.is_f_choosable(g, f),
            cert and cert.to_json())


def _check_route(g, budget):
    """The solvers with the route and without it give the same verdicts,
    transcripts, failing lists and certificates, and a route verdict is
    theirs.  Returns the route's verdict."""
    f = ListSizeFn(tuple(budget))
    verdict = graphs.degree_route(g.adjacency_masks(), budget)
    got = _solvers(g, f)
    with pytest.MonkeyPatch.context() as mp:
        for module in (paint, kernel):
            mp.setattr(module, "degree_route", lambda masks, budget: None)
        want = _solvers(g, f)
    assert got == want, (g.edge_list(), budget)
    if verdict is not None:
        assert got[0][0] is verdict, (g.edge_list(), budget)
        if verdict is False:
            assert got[2] is None
    return verdict


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.data())
def test_the_route_keeps_the_answers_on_glued_blocks(near_miss, data):
    g = data.draw(_glued_blocks(near_miss))
    budget = g.degrees()
    above = data.draw(st.booleans(), label="one budget above degree")
    if above:
        budget[data.draw(st.integers(0, g.n - 1))] += 1
    # at f = d, glued cliques and odd cycles are a no and a near miss a
    # yes; a spare colour at one vertex of a connected graph peels it all
    assert _check_route(g, budget) is (near_miss or above)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["degree", "one above", "below"]), st.data())
def test_the_route_keeps_the_answers_on_random_graphs(n, kind, data):
    pairs = list(combinations(range(n), 2))
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = SimpleGraph.from_edges(n, edges)
    budget = [max(d, 1) for d in g.degrees()]
    if kind == "one above":
        budget[data.draw(st.integers(0, n - 1))] += 1
    elif kind == "below":
        budget = [max(k - data.draw(st.integers(0, 2)), 1) for k in budget]
    _check_route(g, budget)


def test_the_route_keeps_the_answers_on_relabelled_graphs(rng):
    verdicts = []
    for _ in range(40):
        g = random_simple_graph(rng, rng.randint(3, 7), p=rng.uniform(0.2, 0.6))
        budget = [max(d, 1) for d in g.degrees()]
        for _copy in range(2):
            verdicts.append(_check_route(g, budget))
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])
            budget = [budget[perm.index(v)] for v in range(g.n)]
        # a verdict does not change under relabelling
        assert verdicts[-1] is verdicts[-2]
    assert set(verdicts) == {True, False}


def _refuse(name):
    def refuse(*_args):
        raise AssertionError(f"{name} was called")
    return refuse


def _two_connected_7(rng):
    """A random 2-connected graph on 7 vertices that is neither a clique
    nor a cycle."""
    while True:
        g = random_simple_graph(rng, 7, p=0.5)
        if (graphs.blocks(g.adjacency_masks(), 127) == [127]
                and set(g.degrees()) not in ({2}, {6})):
            return g


@pytest.mark.parametrize("build", [
    lambda rng: cycle_graph(6), lambda rng: graphs.complete_multipartite_2t(3), _two_connected_7,
], ids=["c6", "k2x3", "random-2-connected-7"])
def test_a_degree_budget_off_a_gallai_tree_is_painted_without_a_search(build, rng, monkeypatch):
    g = build(rng)
    f = ListSizeFn(tuple(g.degrees()))
    monkeypatch.setattr(paint, "_maximal_independent_sets", _refuse("_maximal_independent_sets"))
    ok, transcript = paint.is_f_paintable(g, f)
    # the painter-win line: the lowest uncolored vertex, alone, each round
    assert ok and transcript == GameTranscript([({v}, {v}) for v in range(g.n)], "Painter")


@pytest.mark.parametrize("g", [
    complete_graph(4), cycle_graph(5), path_graph(4),
    SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)]),
], ids=["k4", "c5", "p4", "triangle-and-c5"])
def test_a_gallai_tree_at_degree_has_no_kernel_perfect_search(g, monkeypatch):
    monkeypatch.setattr(kernel, "is_kernel_perfect", _refuse("is_kernel_perfect"))
    for doubling in (False, True):
        assert kernel.is_f_KP(g, ListSizeFn(tuple(g.degrees())), allow_doubling=doubling) is None


def test_a_gallai_tree_whose_nested_lists_colour_goes_straight_to_the_enumeration(monkeypatch):
    calls = []
    search = paint._canonical_search
    monkeypatch.setattr(paint, "_canonical_search",
                        lambda adj, sizes: calls.append(sizes) or search(adj, sizes))
    monkeypatch.setattr(paint, "is_f_paintable", _refuse("is_f_paintable"))
    monkeypatch.setattr(paint, "_online_game", _refuse("_online_game"))
    ok, lists = paint.is_f_choosable(path_graph(3), ListSizeFn((1, 2, 1)))
    assert calls == [[1, 2, 1]]
    assert not ok and [len(s) for s in lists] == [1, 2, 1]
    assert next(_list_colorings(path_graph(3), lists), None) is None


# ---------------------------------------------------------------------------
# the orientation route: an Alon–Tarsi yes settles the online game (and so
# the offline one) before any search; the solver before the route is the
# oracle

def _theta_graphs(rng):
    """Relabelled θ_{2,2,2} = K_{2,3}, θ_{1,2,3}, θ_{2,2,4} and θ_{2,3,3}."""
    for paths in ((2, 2, 2), (1, 2, 3), (2, 2, 4), (2, 3, 3)):
        edges, n = [], 2
        for length in paths:
            inner = list(range(n, n + length - 1))
            walk = [0] + inner + [1]
            edges += list(zip(walk, walk[1:]))
            n += length - 1
        yield _relabel(SimpleGraph.from_edges(n, edges), rng)


def _orientation_yes_instances(rng):
    """Relabelled K_{2*t} at f = t, t = 2-4, and the catalog's joins
    1b-1i at the budgets their orientations certify (out-degree + 1)."""
    for t in (2, 3, 4):
        g = _relabel(graphs.complete_multipartite_2t(t), rng)
        yield g, ListSizeFn.constant(g.n, t)
    for entry in catalog.catalog():
        if "1b" <= entry.tag <= "1i":
            g = entry.digraph.support()
            yield g, ListSizeFn(tuple(k + 1 for k in entry.digraph.out_degrees()))


def _orientation_no_instances(rng):
    """Paintable graphs without an orientation certificate (K_{2,3} at 2,
    L(K_{3,3}) at 3, θ_{2,2,2}) and lister wins (θ graphs at 2 but
    θ_{2,2,2}, C_5 at 2, K_4 at 3, K_{2,4} at 2)."""
    k23 = _relabel(complete_bipartite(2, 3), rng)
    yield k23, ListSizeFn.constant(5, 2)
    lk33 = _relabel(_line_k33(), rng)
    yield lk33, ListSizeFn.constant(9, 3)
    for g in _theta_graphs(rng):
        yield g, ListSizeFn.constant(g.n, 2)
    for g, k in ((cycle_graph(5), 2), (complete_graph(4), 3), (complete_bipartite(2, 4), 2)):
        g = _relabel(g, rng)
        yield g, ListSizeFn.constant(g.n, k)


def _near_degree_instances(rng, count):
    """Random graphs on 5-8 vertices, each budget its degree less 0-2,
    and at least 1."""
    for _ in range(count):
        g = random_simple_graph(rng, rng.randint(5, 8), p=rng.uniform(0.3, 0.8))
        yield g, ListSizeFn(tuple(max(d - rng.randint(0, 2), 1) for d in g.degrees()))


def _check_against_the_search(g, f):
    """The solver's verdict and transcript are the oracle's; so is
    is_f_choosable's answer, by its spec where the enumerating solver is
    cheap and, on a painter win, as (True, None) without enumerating.
    Returns (paintable, AT)."""
    got = paint.is_f_paintable(g, f)
    assert got == paint_search_oracle.is_f_paintable(g, f), (g.edge_list(), f.values)
    at = alon_tarsi.is_f_AT(g, f)[0]
    if at:
        assert got[0]
    if sum(f.values) <= 14:
        _check_choosable_spec(g, f)
    elif got[0]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paint, "_canonical_search", _refuse_enumeration)
            assert paint.is_f_choosable(g, f) == (True, None)
    return got[0], at


def test_orientation_yeses_match_the_search(rng):
    outcomes = [_check_against_the_search(g, f) for g, f in _orientation_yes_instances(rng)]
    assert outcomes == [(True, True)] * 11


def test_paintable_graphs_without_an_orientation_match_the_search(rng):
    outcomes = [_check_against_the_search(g, f) for g, f in _orientation_no_instances(rng)]
    # K_{2,3}, L(K_{3,3}) and θ_{2,2,2}, then the other θ graphs, C_5,
    # K_4 and K_{2,4}
    assert outcomes == [(True, False)] * 3 + [(False, False)] * 6


def test_near_degree_budgets_match_the_search(rng):
    outcomes = {_check_against_the_search(g, f) for g, f in _near_degree_instances(rng, 150)}
    # a paintable graph without an orientation is rare here
    assert outcomes >= {(True, True), (False, False)}


@pytest.mark.parametrize("t", [3, 4])
def test_an_orientation_yes_is_painted_without_a_search(t, rng, monkeypatch):
    g = _relabel(graphs.complete_multipartite_2t(t), rng)
    f = ListSizeFn.constant(g.n, t)
    assert graphs.degree_route(g.adjacency_masks(), list(f.values)) is None
    monkeypatch.setattr(paint, "_maximal_independent_sets", _refuse("_maximal_independent_sets"))
    start = time.perf_counter()
    ok, transcript = paint.is_f_paintable(g, f)
    assert time.perf_counter() - start < 0.5
    assert ok and transcript == GameTranscript([({v}, {v}) for v in range(g.n)], "Painter")
    monkeypatch.setattr(paint, "_canonical_search", _refuse_enumeration)
    assert paint.is_f_choosable(g, f) == (True, None)


def test_choosable_runs_the_degree_route_once(monkeypatch):
    calls = []
    route = graphs.degree_route
    monkeypatch.setattr(paint, "degree_route",
                        lambda adj, budget: calls.append(budget) or route(adj, budget))
    g = graphs.complete_multipartite_2t(3)
    assert paint.is_f_choosable(g, ListSizeFn.constant(6, 3)) == (True, None)
    assert calls == [[3] * 6]


@pytest.mark.parametrize("g, budget, want", [
    (cycle_graph(5), (2,) * 5, False),
    (complete_graph(4), (3,) * 4, False),
    (path_graph(3), (1, 2, 1), False),
    (cycle_graph(6), (2,) * 6, True),
], ids=["c5", "k4", "p3", "c6"])
def test_the_degree_route_answers_without_an_orientation(g, budget, want, monkeypatch):
    monkeypatch.setattr(paint, "is_f_AT", _refuse("is_f_AT"))
    f = ListSizeFn(budget)
    got = paint.is_f_paintable(g, f)
    assert got[0] is want and got == paint_search_oracle.is_f_paintable(g, f)
    assert paint.is_f_choosable(g, f)[0] is want


# ---------------------------------------------------------------------------
# the Galvin route: a checked kernel-perfect orientation of the line graph of
# a bipartite multigraph settles the online game (and so the offline one)
# before any search; the solver before the orientation route is the oracle

def _bipartite_line_graphs(rng, count):
    """Relabelled line graphs of random bipartite multigraphs: 2-4 + 2-4
    vertices, edge chance 0.4-0.9, multiplicity at most 2 and 2-9 copies.
    Each comes with the Galvin budget max(d(a), d(b)) of the root edge ab
    behind each vertex."""
    found = []
    while len(found) < count:
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        p = rng.uniform(0.4, 0.9)
        records = [(i, a + j, 1 + (rng.random() < 0.25))
                   for i in range(a) for j in range(b) if rng.random() < p]
        if not 2 <= sum(m for _, _, m in records) <= 9:
            continue
        root = MultiGraph.from_edges(a + b, records)
        lg, origin = graphs.line_graph(root)
        degrees = root.degrees()
        perm = list(range(lg.n))
        rng.shuffle(perm)
        g = SimpleGraph.from_edges(lg.n, [(perm[u], perm[v]) for u, v in lg.edge_list()])
        galvin = [0] * lg.n
        for v, (x, y) in enumerate(origin):
            galvin[perm[v]] = max(degrees[x], degrees[y])
        found.append((g, galvin))
    return found


def _galvin_levels(rng, galvin):
    """The Galvin budget, then one below it on some copies (at least 1),
    then one above it on some copies."""
    some = rng.sample(range(len(galvin)), rng.randint(1, len(galvin)))
    yield "at", galvin
    yield "below", [max(t - (v in some), 1) for v, t in enumerate(galvin)]
    yield "above", [t + (v in some) for v, t in enumerate(galvin)]


def test_galvin_budgets_match_the_search(rng):
    seen = set()
    # random roots on up to 9 copies hardly ever leave the degree route
    # open with no orientation at their Galvin budget; L(K_{3,3}) does
    lk33 = [(_relabel(_line_k33(), rng), [3] * 9) for _ in range(3)]
    for g, galvin in _bipartite_line_graphs(rng, 60) + lk33:
        bipartite = kernel.bipartition(structure.line_graph_root(g)[0]) is not None
        for level, budget in _galvin_levels(rng, galvin):
            ok, at = _check_against_the_search(g, ListSizeFn(tuple(budget)))
            route = paint._galvin_route(g, budget)
            if level == "at":
                # Galvin's theorem, which the search confirms
                assert ok
            if route:
                assert ok
            seen.add((level, bipartite, route, ok, at))
    # the route settles L(K_{3,3}), which no orientation does, says yes
    # above the Galvin budget, refuses a budget below it where the lister
    # wins, and refuses a root recognized with a triangle
    assert {("at", True, True, True, False), ("above", True, True, True, True),
            ("below", True, False, False, False), ("at", False, False, True, True)} <= seen


def test_galvin_route_fires_where_the_degree_route_leaves_a_galvin_budget_open(rng):
    outcomes = []
    lk33 = [(_relabel(_line_k33(), rng), [3] * 9) for _ in range(50)]
    for g, galvin in _bipartite_line_graphs(rng, 200) + lk33:
        if graphs.degree_route(g.adjacency_masks(), galvin) is None:
            root = structure.line_graph_root(g)[0]
            outcomes.append((kernel.bipartition(root) is not None, paint._galvin_route(g, galvin)))
    assert len(outcomes) >= 60 and set(outcomes) == {(True, True)}


def _lk33_relabelled(rng):
    g = _relabel(_line_k33(), rng)
    return g, ListSizeFn.constant(9, 3)


def test_the_galvin_route_paints_line_k33_without_a_search(rng, monkeypatch):
    g, f = _lk33_relabelled(rng)
    assert graphs.degree_route(g.adjacency_masks(), list(f.values)) is None
    assert not alon_tarsi.is_f_AT(g, f)[0]
    monkeypatch.setattr(paint, "_maximal_independent_sets", _refuse("_maximal_independent_sets"))
    ok, transcript = paint.is_f_paintable(g, f)
    assert ok and transcript == GameTranscript([({v}, {v}) for v in range(g.n)], "Painter")


def test_choosable_settles_line_k33_by_the_galvin_route(rng, monkeypatch):
    g, f = _lk33_relabelled(rng)
    monkeypatch.setattr(paint, "_maximal_independent_sets", _refuse("_maximal_independent_sets"))
    monkeypatch.setattr(paint, "_canonical_search", _refuse_enumeration)
    assert paint.is_f_choosable(g, f) == (True, None)


def test_the_galvin_route_raises_on_a_failing_certificate(rng, monkeypatch):
    g, f = _lk33_relabelled(rng)
    monkeypatch.setattr(kernel.KPCertificate, "check", lambda self: False)
    monkeypatch.setattr(paint, "_maximal_independent_sets", _refuse("_maximal_independent_sets"))
    with pytest.raises(RuntimeError, match="failed its certificate check"):
        paint.is_f_paintable(g, f)
    with pytest.raises(RuntimeError, match="failed its certificate check"):
        paint.is_f_choosable(g, f)


# the paw, L(K_{1,3} with one edge extended): its root is recognized as
# a double edge 01, then 12 and 23, and the two copies of 01 need 3
_PAW = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize("g, budget, skipped", [
    (complete_bipartite(2, 3), (2,) * 5, "is_claw_free"),
    (complete_bipartite(2, 3), (3,) * 5, "line_graph_root"),
    (_PAW, (2, 3, 3, 2), "galvin_orientation"),
], ids=["below-half-the-degree", "claw", "below-galvin"])
def test_the_galvin_route_refuses_before_galvin(g, budget, skipped, monkeypatch):
    # each refusal comes before the step named, and before any orientation
    monkeypatch.setattr(paint, skipped, _refuse(skipped))
    monkeypatch.setattr(paint, "galvin_orientation", _refuse("galvin_orientation"))
    assert paint._galvin_route(g, list(budget)) is False
    f = ListSizeFn(budget)
    assert paint.is_f_paintable(g, f) == paint_search_oracle.is_f_paintable(g, f)


def test_the_galvin_route_misses_a_root_recognized_with_a_triangle(rng, monkeypatch):
    # L(K_{1,3} + K_{2,3}) is K_3 beside the prism; the recognized root
    # covers K_3 by three 2-cliques, a triangle, where K_{1,3} is bipartite
    records = [(0, 1, 1), (0, 2, 1), (0, 3, 1)] + [(u, v, 1) for u in (4, 5) for v in (6, 7, 8)]
    g = _relabel(graphs.line_graph(MultiGraph.from_edges(9, records))[0], rng)
    assert kernel.bipartition(structure.line_graph_root(g)[0]) is None
    monkeypatch.setattr(paint, "galvin_orientation", _refuse("galvin_orientation"))
    assert paint._galvin_route(g, [3] * 9) is False
    # with the prism at 2 neither the degree route nor an orientation
    # decides, the route refuses, and the search answers as the oracle does
    f = ListSizeFn(tuple(3 if g.degree(v) == 2 else 2 for v in range(9)))
    assert graphs.degree_route(g.adjacency_masks(), list(f.values)) is None
    assert not alon_tarsi.is_f_AT(g, f)[0]
    assert paint.is_f_paintable(g, f) == paint_search_oracle.is_f_paintable(g, f)
