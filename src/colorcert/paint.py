"""Exact solvers for list-color games, offline and online.

The online game: each round one side (the lister) picks a nonempty set
of uncolored vertices and each picked vertex pays one token; the other
side (the painter) colors an independent subset of the picked set.  The
lister wins if an uncolored vertex runs out of tokens; the painter wins
once everything is colored.  A graph is f-paintable when the painter
wins starting from budgets f.  The offline variant quantifies over
explicit list assignments instead.

Both solvers settle what they can before any exponential search, and
f-paintable implies f-choosable.  First comes the degree route.  Then
an Alon–Tarsi certificate, since f-AT implies f-paintable (Schauz,
"Flexible color lists in Alon and Tarsi's theorem, and time
scheduling", EJC 17, 2010).  Then, on the line graph of a bipartite
multigraph, the Galvin route: a kernel-perfect orientation with every
out-degree below f implies f-paintable (Galvin, JCTB 63, 1995; Schauz,
"Mr. Paint and Mrs. Correct", EJC 16, 2009).  These two say only yes,
each with a checked certificate, so they are exact where they answer;
a question they leave goes on to the search.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from .alon_tarsi import is_f_AT
from .graphs import _bits, degree_route
from .kernel import bipartition, find_kernel, galvin_orientation
from .structure import is_claw_free, line_graph_root

RANDOM_GAMES = 1000


@dataclass
class GameTranscript:
    rounds: list  # (listed set, painted set) pairs
    winner: str  # "Painter" or "Lister"

    def to_json(self):
        return {
            "rounds": [
                {"listed": sorted(m), "painted": sorted(p)} for m, p in self.rounds
            ],
            "winner": self.winner,
        }


def _subsets_of(mask):
    """Nonempty submasks, largest first."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _maximal_independent_sets(adj):
    """The maximal independent subsets of every vertex mask, larger first.

    Indexed by mask.  Let v be the lowest vertex of a mask m.  A maximal
    independent subset of m that holds v is v with one of m minus v and
    its neighbours; one that does not is one of m minus v that holds a
    neighbour of v.  Both masks are below m.
    """
    table = [[0]]
    for m in range(1, 1 << len(adj)):
        bit = m & -m
        near = adj[bit.bit_length() - 1]
        found = [p | bit for p in table[m & ~(near | bit)]]
        found += [p for p in table[m ^ bit] if p & near]
        # larger answers first: they win more often
        found.sort(key=int.bit_count, reverse=True)
        table.append(found)
    return table


def _pack(values):
    """(tokens, width): values[v] >= 0 in the field at width * v of one int.

    The width fits the largest value and is at least 1.  Tokens only
    fall during a game, so no field outgrows it.
    """
    width = max(max(values, default=0).bit_length(), 1)
    return sum(t << (width * v) for v, t in enumerate(values)), width


def _at_most(mask, tokens, width, value):
    """The vertices of mask whose field in tokens is at most value."""
    field = (1 << width) - 1
    out = 0
    pending = mask
    while pending:
        bit = pending & -pending
        pending ^= bit
        if tokens >> (width * (bit.bit_length() - 1)) & field <= value:
            out |= bit
    return out


def _greedy_reduce(adj, mask, tokens, width, pending):
    """Drop vertices of mask whose tokens exceed their remaining degree.

    Vertex v's tokens are in the field at width * v (see `_pack`).
    Returns the reduced (mask, tokens), with the fields of dropped
    vertices cleared.  Such a vertex can always be colored last,
    greedily, whatever lists or moves the rest of the game brings, so a
    graph that reduces to the empty mask is budget-choosable and
    budget-paintable.  Dropping a vertex only lowers the degrees of the
    others, so the result does not depend on the order of removal.  The
    vertices of `pending` are tested first, then the neighbours of each
    dropped one, so `pending` must hold every vertex of mask that can be
    dropped.
    """
    field = (1 << width) - 1
    while pending:
        bit = pending & -pending
        pending ^= bit
        v = bit.bit_length() - 1
        if tokens >> (width * v) & field > (adj[v] & mask).bit_count():
            mask ^= bit
            tokens &= ~(field << (width * v))
            pending |= adj[v] & mask
    return mask, tokens


def _play(tokens, width, mask, move):
    """One game from the uncolored mask and its tokens, packed by `_pack`.

    `move(mask, tokens)` names each round's listed mask and the painted
    mask inside it.  The lister wins once an uncolored vertex is left
    without a token: a listed one that had at most 1, or any that had at
    most 0, so a budget below 1 loses, listed or not.  Otherwise each
    listed vertex left uncolored pays from a field of 2 or more.
    """
    field = (1 << width) - 1
    rounds = []
    while mask:
        listed, painted = move(mask, tokens)
        rounds.append((set(_bits(listed)), set(_bits(painted))))
        mask &= ~painted
        left = listed & mask
        if _at_most(mask, tokens, width, 0) or _at_most(left, tokens, width, 1):
            return GameTranscript(rounds, "Lister")
        tokens &= ~sum(field << (width * v) for v in _bits(painted))
        tokens -= sum(1 << (width * v) for v in _bits(left))
    return GameTranscript(rounds, "Painter")


PAINTABLE_VERTICES = 9


def is_f_paintable(g, f):
    """Exact value of the online game, with a sample winning line.

    Returns (paintable, transcript).  It tries five routes, cheapest
    first, and the first that decides answers:

    1. A budget below 1 loses before the first round.
    2. A yes from `degree_route` (peeling, then the blocks at budget =
       degree).  Its no goes on to route 5, for the lister's line.
    3. When `degree_route` does not apply, a yes from `is_f_AT`, since
       f-AT implies f-paintable (see the module docstring).  A no from
       `degree_route` needs no AT test, since not paintable implies not
       AT, and a no from `is_f_AT` settles nothing.
    4. After a no from `is_f_AT`, a yes from `_galvin_route` on the line
       graph of a bipartite multigraph.  It too only says yes, with a
       checked kernel-perfect certificate; anything else settles
       nothing.
    5. The state search of `_online_game`.

    On a lister win the lister plays its first winning listing in
    ascending mask order, answered by the least maximal independent
    set.  On a painter win, by any route and with no search table built
    on routes 2 to 4, the lister lists the lowest uncolored vertex
    alone and the painter paints it, round by round.  That is the
    lister's first legal move with the painter's only answer, and no
    search is needed to see that the answer wins: it leaves the game on
    an induced subgraph with the same tokens, and paintability passes to
    induced subgraphs (Schauz, "Mr. Paint and Mrs. Correct", EJC 16,
    2009).  It is written down without play: each listed vertex is
    painted, so no token is paid.
    """
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    budget = [f(v) for v in range(g.n)]
    if any(t < 1 for t in budget):
        return False, GameTranscript([], "Lister")
    adj = g.adjacency_masks()
    return _online_game(g, f, adj, budget, degree_route(adj, budget))


def _galvin_route(g, budget):
    """Whether Galvin's orientation shows g budget-paintable.

    It does when g is the line graph of a bipartite multigraph B, read
    off by `line_graph_root`, and each vertex's budget is at least
    max(d(a), d(b)) for the root edge ab it stands for.
    `galvin_orientation` then builds a kernel-perfect orientation of
    L(B) with every out-degree below that bound and checks it, raising
    if the check fails, so a yes always rests on a checked certificate.
    Such an orientation implies paintability from the bound (see the
    module docstring), and so from any larger budget.

    Two exact cuts run before any recognition.  A copy of ab with
    multiplicity m has d(a) + d(b) - m - 1 neighbours in L(B), so its
    degree plus 2 is at most 2 max(d(a), d(b)), and a budget below half
    of that is refused.  A line graph has no claw, so a graph with one
    is refused.
    """
    if any(2 * t < d + 2 for t, d in zip(budget, g.degrees())) or not is_claw_free(g)[0]:
        return False
    found = line_graph_root(g)
    if found is None or bipartition(found[0]) is None:
        return False
    root, origin = found
    degrees = root.degrees()
    if any(t < max(degrees[a], degrees[b]) for t, (a, b) in zip(budget, origin)):
        return False
    galvin_orientation(root)
    return True


def _online_game(g, f, adj, budget, route):
    """Routes 2 to 5 of `is_f_paintable`, with every budget at least 1
    and `route` what `degree_route` answered on them.

    A game state is the uncolored mask with the tokens left, packed by
    `_pack` with the fields of colored vertices cleared.  An answer that
    leaves a listed vertex uncolored with no token loses at once and is
    skipped, so every field inside the mask is at least 1 and the packed
    tokens alone name the state; they key the memo.  A state is looked
    up before `_greedy_reduce` runs, and its value is stored under both
    the unreduced and the reduced key.  Only reduced states are
    expanded, and tokens only fall, so after a move only the neighbours
    of the painted set can be dropped.

    The search lists only sets that induce a connected subgraph, and
    this keeps the value of every state.  By induction on the total
    tokens, say it is kept at states with fewer tokens than S, and the
    painter has a winning answer to every connected listing at S.  Let
    the lister list M = M1 + M2, with M1 connected and no edge between
    M1 and M2.  The painter answers M1 with its winning I1.  The state
    reached has fewer tokens, so the painter wins it in the full game,
    and M2 is still uncolored there, so some answer I2 to M2 wins from
    it.  Then I1 + I2 is a maximal independent answer to M that reaches
    the same state as the two moves, so it wins.  The memo thus holds
    values of the full game, and the lister-win line, which tries every
    listed set, reads it as it is.
    """
    if route or route is None and (is_f_AT(g, f)[0] or _galvin_route(g, budget)):
        return True, GameTranscript([({v}, {v}) for v in range(g.n)], "Painter")
    tokens, width = _pack(budget)
    size = 1 << g.n
    field = (1 << width) - 1
    # per vertex mask: one token off each vertex, every other field
    # kept, the neighbours of the mask, and whether it is connected
    ones = [0] * size
    keep = [-1] * size
    near = [0] * size
    connected = [False] * size
    for m in range(1, size):
        bit = m & -m
        v = bit.bit_length() - 1
        ones[m] = ones[m ^ bit] | 1 << (width * v)
        keep[m] = keep[m ^ bit] & ~(field << (width * v))
        near[m] = near[m ^ bit] | adj[v]
        reach = bit
        while reach != (grown := reach | near[reach] & m):
            reach = grown
        connected[m] = reach == m
    answers = _maximal_independent_sets(adj)
    memo = {0: True}

    def value(mask, state, pending):
        """Whether the painter wins from a state with no empty field in
        mask; `pending` as in _greedy_reduce."""
        win = memo.get(state)
        if win is None:
            mask, reduced = _greedy_reduce(adj, mask, state, width, pending)
            win = memo.get(reduced)
            if win is None:
                win = memo[reduced] = expand(mask, reduced)
            memo[state] = win
        return win

    def expand(mask, state):
        """The value of a reduced state by search."""
        low = _at_most(mask, state, width, 1)
        for listed in _subsets_of(mask):
            if not connected[listed]:
                continue
            base = state - ones[listed]
            must = listed & low
            for paint in answers[listed]:
                if must & ~paint:
                    continue
                child = base & keep[paint]
                win = memo.get(child)
                if win is None:
                    rest = mask & ~paint
                    win = value(rest, child, near[paint] & rest)
                if win:
                    break
            else:
                return False
        return True

    def refute(mask, state):
        """The lister's first winning listing, answered by the least
        maximal independent set."""
        low = _at_most(mask, state, width, 1)
        for listed in sorted(_subsets_of(mask)):
            base = state - ones[listed]
            if not any(not listed & low & ~paint
                       and value(mask & ~paint, base & keep[paint], mask & ~paint)
                       for paint in answers[listed]):
                return listed, min(answers[listed])

    if value(size - 1, tokens, size - 1):
        return True, GameTranscript([({v}, {v}) for v in range(g.n)], "Painter")
    return False, _play(tokens, width, size - 1, refute)


def _list_colorer(adj, sizes):
    """(lists, color, colorable) for list colorings of the graph with
    neighbour masks `adj`, where every list of v has sizes[v] colors.

    Fill `lists` with one color bitmask per vertex; colorable(0) says
    whether they have a proper coloring and, when they do, leaves one in
    `color`, one color bit per vertex.  The coloring order and each
    vertex's earlier-colored neighbors depend only on the sizes, so they
    are fixed for every fill.
    """
    n = len(adj)
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

    return lists, color, colorable


def _as_sets(lists):
    return [set(_bits(m)) for m in lists]


def _canonical_search(adj, sizes):
    """Exhaustive list-assignment check on at least one vertex.

    Returns (True, None) or (False, the first failing assignment).
    Assignments are enumerated in a canonical form — colors are
    introduced in ascending order without gaps — which covers every
    intersection pattern over a universe of size sum(sizes).  Lists and
    colors are bitmasks over that universe.

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
    failing leaf.  A budget above `used` leaves no all-old list.
    """
    lists, color, colorable = _list_colorer(adj, sizes)
    last = len(adj) - 1
    spare = 1 << sum(sizes)

    def settle_last(used):
        """The first failing list of the last vertex, else None."""
        k = sizes[last]
        lists[last] = spare
        if not colorable(0):
            lists[last] = ((1 << k) - 1) << used
            return _as_sets(lists)
        blocked = 0
        for w in _bits(adj[last]):
            blocked |= color[w]
        old = [1 << c for c in _bits(blocked)]
        for old_set in combinations(old, k):
            lists[last] = sum(old_set)
            if not colorable(0):
                return _as_sets(lists)
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


def is_f_choosable(g, f):
    """Whether every assignment of lists of sizes f has a proper coloring.

    Returns (True, None) or (False, a failing assignment), the lists as
    sets of colors.  It tries four routes, cheapest first, and the first
    that decides answers:

    1. A negative budget raises ValueError.  When `degree_route` says
       yes (peeling empties the graph, or leaves budget = degree with
       no component a Gallai tree), the graph is choosable.
    2. The nested lists L(v) = {0..f(v)-1} are colored once.  If they
       have no coloring, they are returned: a failing assignment of the
       budgeted sizes.
    3. The online game, unless `degree_route` said no: a painter win
       from the budgets f means yes.  The lister can play any fixed
       assignment, listing in round c the uncolored vertices whose
       lists hold color c, so the painter's winning answers color from
       the lists (Schauz, "Mr. Paint and Mrs. Correct", EJC 16, 2009;
       Zhu, "On-line list colouring of graphs", EJC 16, 2009).  Every
       budget is at least 1 here, since a budget of 0 fails at route 2.
       `_online_game` takes the route's answer, so `degree_route` runs
       once, and tries an Alon–Tarsi certificate, then Galvin's
       orientation on the line graph of a bipartite multigraph, before
       its search.  Both only say yes, each with a checked certificate.
    4. `_canonical_search` enumerates what is left: the graphs that are
       choosable but not paintable, and the failing assignments that
       the nested lists miss.

    So a failing assignment is the nested one whenever that one fails,
    else the enumeration's first.
    """
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    n = g.n
    sizes = [f(v) for v in range(n)]
    for v, k in enumerate(sizes):
        if k < 0:
            raise ValueError(f"vertex {v} has a negative list size {k}")
    adj = g.adjacency_masks()
    by_blocks = degree_route(adj, sizes)
    if by_blocks:
        return True, None
    lists, _, colorable = _list_colorer(adj, sizes)
    lists[:] = [(1 << k) - 1 for k in sizes]
    if not colorable(0):
        return False, _as_sets(lists)
    if by_blocks is None and _online_game(g, f, adj, sizes, None)[0]:
        return True, None
    return _canonical_search(adj, sizes)


# ---------------------------------------------------------------------------
# strategy play from certificates

# The exhaustive sweep lists every subset of the uncolored vertices and
# recurses once per round, so at most once per vertex.
KERNEL_SWEEP_VERTICES = 20


def kernel_painter_play(g, f, cert, adversary="exhaustive"):
    """Play the online game with the kernel strategy for the painter.

    The painter always colors a kernel of the certificate digraph
    induced on the listed set (restricted to uncolored vertices).
    `adversary` is "exhaustive" (sweep every lister line; returns the
    first transcript, raising if any line is lost; ValueError above
    KERNEL_SWEEP_VERTICES vertices) or "random:<seed>"
    (play RANDOM_GAMES random games).  Returns a painter-winning transcript.

    The kernel depends only on the listed set, so `find_kernel` runs
    once per distinct listed mask.  The sweep and `_play` keep the uncolored
    mask with the tokens packed by `_pack`, clamped at 0 and with the
    fields of colored vertices cleared; a listed vertex left uncolored
    loses once its tokens run out, whether it had 1 or fewer, and so
    does any vertex left uncolored that started with none.
    """
    d = cert.digraph
    if d.n != g.n:
        raise ValueError("certificate does not match the graph")
    tokens, width = _pack([max(f(v), 0) for v in range(g.n)])
    field = (1 << width) - 1
    steps = {}

    def step(listed):
        """(kernel, listed vertices left uncolored, the fields kept, one
        token off each vertex left) for a listed mask."""
        found = find_kernel(d, list(_bits(listed)))
        if found is None:
            raise RuntimeError("certificate digraph lost its kernel")
        left = listed & ~sum(1 << v for v in found)
        steps[listed] = (listed ^ left, left,
                         ~sum(field << (width * v) for v in found),
                         sum(1 << (width * v) for v in _bits(left)))
        return steps[listed]

    def kernel_of(listed):
        return (steps.get(listed) or step(listed))[0]

    if adversary == "exhaustive":
        if g.n > KERNEL_SWEEP_VERTICES:
            raise ValueError(f"exhaustive sweep capped at {KERNEL_SWEEP_VERTICES} vertices")
        # the painter's reply is deterministic, so game states repeat
        visited = set()
        listings = {}
        full = (1 << g.n) - 1
        # only a listed vertex pays a token, and one left without any loses
        # at once, so only the vertices that start with none ever have none
        broke = _at_most(full, tokens, width, 0)

        def sweep(mask, tokens):
            visited.add((mask, tokens))
            if mask not in listings:
                # by size, then lexicographically
                verts = list(_bits(mask))
                listings[mask] = [sum(1 << v for v in listed)
                                  for size in range(1, len(verts) + 1)
                                  for listed in combinations(verts, size)]
            low = _at_most(mask, tokens, width, 1)
            for listed in listings[mask]:
                kernel, left, keep, unit = steps.get(listed) or step(listed)
                if left & low or broke & mask & ~kernel:
                    # `_play`'s rule: a vertex left uncolored without a token
                    raise AssertionError(
                        f"kernel painter lost after listing {list(_bits(listed))}"
                    )
                child = (mask & ~kernel, (tokens & keep) - unit)
                if child[0] and child not in visited:
                    sweep(*child)

        sweep(full, tokens)
        # one full line for the transcript: every uncolored vertex listed
        return _play(tokens, width, full, lambda mask, _tokens: (mask, kernel_of(mask)))

    if adversary.startswith("random:"):
        seed = int(adversary.split(":", 1)[1])
        rng = random.Random(seed)

        def moves(mask, _tokens):
            verts = list(_bits(mask))
            listed = sum(1 << v for v in rng.sample(verts, rng.randint(1, len(verts))))
            return listed, kernel_of(listed)

        last = None
        for _ in range(RANDOM_GAMES):
            last = _play(tokens, width, (1 << g.n) - 1, moves)
            if last.winner != "Painter":
                raise AssertionError("kernel painter lost a random game")
        return last

    raise ValueError(f"unknown adversary {adversary!r}")
