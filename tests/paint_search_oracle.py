"""`paint.is_f_paintable` as it was before it asked `is_f_AT`: the
budget check, the degree route, then the state search for every other
question.  Kept verbatim, helpers read from `colorcert.paint`, as the
oracle for the orientation route: its verdicts and transcripts are the
solver's on every input."""

from colorcert.graphs import degree_route
from colorcert.paint import (
    PAINTABLE_VERTICES, GameTranscript, _at_most, _greedy_reduce,
    _maximal_independent_sets, _pack, _play, _subsets_of,
)


def is_f_paintable(g, f):
    """Exact value of the online game, with a sample winning line.

    Returns (paintable, transcript).  A budget below 1 loses before the
    first round.  On a lister win the lister plays its first winning
    listing in ascending mask order, answered by the least maximal
    independent set.  On a painter win the lister lists the lowest
    uncolored vertex alone and the painter paints it, round by round.
    That is the lister's first legal move with the painter's only
    answer, and no search is needed to see that the answer wins: it
    leaves the game on an induced subgraph with the same tokens, and
    paintability passes to induced subgraphs (Schauz, "Mr. Paint and
    Mrs. Correct", EJC 16, 2009).  It is written down without play:
    each listed vertex is painted, so no token is paid.  When
    `degree_route` says yes, it is returned before any table is built;
    when it says no, the search still runs, for the lister's line.

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
    if g.n > PAINTABLE_VERTICES:
        raise ValueError(f"solver capped at {PAINTABLE_VERTICES} vertices")
    budget = [f(v) for v in range(g.n)]
    if any(t < 1 for t in budget):
        return False, GameTranscript([], "Lister")
    adj = g.adjacency_masks()
    if degree_route(adj, budget):
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
