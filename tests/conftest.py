import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20260826)


def random_simple_graph(rng, n, p=0.5):
    from colorcert.graphs import SimpleGraph

    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def random_multigraph(rng, n, m, max_mult=3):
    from colorcert.graphs import MultiGraph

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    records = [(u, v, rng.randint(1, max_mult)) for u, v in pairs[:m]]
    return MultiGraph.from_edges(n, records)


def shuffled(rng, n, edges):
    """The graph on n vertices with these edges, vertex labels shuffled."""
    from colorcert.graphs import SimpleGraph

    perm = list(range(n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def path_power(n, k):
    """Edges of the k-th power of the path 0..n-1."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v - u <= k]


def random_interval_graph(rng, n):
    """A graph of n random intervals on a short line, labels shuffled."""
    spans = []
    for _ in range(n):
        a = rng.randint(0, 2 * n)
        spans.append((a, a + rng.randint(0, 4)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]]
    return shuffled(rng, n, edges)
