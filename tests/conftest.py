import json
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


def neighbors(g, v):
    """The set of neighbours of v in the simple graph g."""
    m = g.adjacency_masks()[v]
    return {w for w in range(g.n) if m >> w & 1}


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


# the vertex-count edits of a certificate document, each with the key
# its rejection names
SIZE_PROBES = {"n": "'orientation.n'", "orientation.n": "'orientation.n'",
               "f+1": "'f'", "f-1": "'f'"}


def resized(doc, probe):
    """A copy of a certificate document with one vertex count moved:
    'n' or 'orientation.n' raised by one, or a value added to or removed
    from 'f'."""
    doc = json.loads(json.dumps(doc))
    if probe == "n":
        doc["n"] += 1
    elif probe == "orientation.n":
        doc["orientation"]["n"] += 1
    elif probe == "f+1":
        doc["f"].append(3)
    else:
        doc["f"].pop()
    return doc


def certificate_parts(doc):
    """(graph, budget, digraph) of a certificate document, read without
    comparing their vertex counts."""
    from colorcert.graphs import ListSizeFn, SimpleGraph, digraph_from_json

    return (SimpleGraph.from_edges(doc["n"], doc["edges"]), ListSizeFn(tuple(doc["f"])),
            digraph_from_json(doc["orientation"]))
