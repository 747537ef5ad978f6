"""Exact solvers for list-color games, offline and online.

The online game: each round one side (the lister) picks a nonempty set
of uncolored vertices and each picked vertex pays one token; the other
side (the painter) colors an independent subset of the picked set.  The
lister wins if an uncolored vertex runs out of tokens; the painter wins
once everything is colored.  A graph is f-paintable when the painter
wins starting from budgets f.  The offline variant quantifies over
explicit list assignments instead.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from .kernel import find_kernel

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


def _mask_vertices(mask):
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask &= ~(1 << v)
    return out


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


PAINTABLE_VERTICES = 9


def is_f_paintable(g, f):
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


CHOOSABLE_VERTICES = 9


def is_f_choosable(g, f):
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
    failing leaf.  A budget above `used` leaves no all-old list.
    """
    if g.n > CHOOSABLE_VERTICES:
        raise ValueError(f"solver capped at {CHOOSABLE_VERTICES} vertices")
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


# ---------------------------------------------------------------------------
# strategy play from certificates

def kernel_painter_play(g, f, cert, adversary="exhaustive"):
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
                    if any(new_tokens[v] <= 0 and v in remaining for v in listed):
                        # a listed-but-unpainted vertex hit zero tokens
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
