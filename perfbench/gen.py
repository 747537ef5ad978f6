"""Seeded input generators on plain data (vertex count, edge pairs).

Every generator takes a ``random.Random`` and returns data that the
workloads turn into colorcert objects; the same seed gives the same
inputs.  Labels are always drawn from the seed, because the program's
cost and some of its answers depend on them.
"""

from itertools import combinations


def relabel(n, pairs, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs)


def random_graph(rng, n, p):
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def complete(n):
    return list(combinations(range(n), 2))


def cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def complete_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def k2t(t):
    """Complete multipartite graph with t parts of size two."""
    return [(u, v) for u, v in combinations(range(2 * t), 2) if u // 2 != v // 2]


def clique_join_k2t(s, t):
    """K_s joined to K_{2*t}: vertices 0..s-1 form the clique."""
    edges = complete(s)
    edges += [(s + u, s + v) for u, v in k2t(t)]
    edges += [(u, s + v) for u in range(s) for v in range(2 * t)]
    return edges


def cycle_power(n, k):
    """C_n^k: i ~ j when their circular distance is at most k."""
    return [
        (u, v) for u, v in combinations(range(n), 2)
        if min(v - u, n - (v - u)) <= k
    ]


def path_power(n, k):
    """P_n^k, a linear interval graph."""
    return [(u, v) for u, v in combinations(range(n), 2) if v - u <= k]


def multigraph(records):
    """Canonical (u, v, m) records with u < v, as colorcert sorts them."""
    mult = {}
    for u, v, m in records:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + m
    return sorted((u, v, m) for (u, v), m in mult.items())


def edge_copies(records):
    """Root edge of each line-graph vertex, in colorcert's vertex order."""
    return [(u, v) for u, v, m in records for _ in range(m)]


def relabel_records(n, records, rng, perm=None):
    if perm is None:
        perm = list(range(n))
        rng.shuffle(perm)
    return multigraph([(perm[u], perm[v], m) for u, v, m in records])


def random_multiplicity(rng, max_mult):
    return 1 + sum(rng.random() < 0.25 for _ in range(max_mult - 1))


def random_bipartite_multigraph(rng, a, b, p, max_mult):
    """Bipartite multigraph with parts 0..a-1 and a..a+b-1, labels shuffled."""
    records = [
        (i, a + j, random_multiplicity(rng, max_mult))
        for i in range(a) for j in range(b) if rng.random() < p
    ]
    if not records:
        records = [(0, a, 1)]
    return relabel_records(a + b, records, rng)


def regular_bipartite_multigraph(rng, a, k):
    """Union of k random perfect matchings between two parts of size a."""
    records = []
    for _ in range(k):
        perm = list(range(a))
        rng.shuffle(perm)
        records += [(i, a + perm[i], 1) for i in range(a)]
    return relabel_records(2 * a, multigraph(records), rng)


def random_multigraph(rng, n, p, max_mult):
    records = [
        (u, v, random_multiplicity(rng, max_mult))
        for u, v in combinations(range(n), 2) if rng.random() < p
    ]
    return relabel_records(n, records, rng)


def random_multigraph_with_pairs(rng, n, pairs, max_mult):
    """Exactly ``pairs`` adjacent vertex pairs, chosen at random."""
    chosen = rng.sample(list(combinations(range(n), 2)), pairs)
    return multigraph([(u, v, random_multiplicity(rng, max_mult)) for u, v in chosen])


def odd_cycle_with_pendants(rng, k, extra):
    """C_k plus ``extra`` pendant edges hung on random cycle vertices.

    Returns the records and the set of cycle vertices, both relabelled.
    """
    records = [(u, v, 1) for u, v in cycle(k)]
    for i in range(extra):
        records.append((rng.randrange(k), k + i, 1))
    perm = list(range(k + extra))
    rng.shuffle(perm)
    return relabel_records(k + extra, records, rng, perm), {perm[i] for i in range(k)}


def random_orientation(rng, edges, both=0.1):
    """Each edge one way at random; a few bidirected."""
    arcs = []
    for u, v in edges:
        r = rng.random()
        if r < both:
            arcs += [(u, v), (v, u)]
        elif r < (1 + both) / 2:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return arcs


def around_the_cycle(copies, cycle_vertices, rng):
    """Arcs that run around the root's cycle, one consistent direction.

    ``copies`` gives the root edge of each line-graph vertex; the copies
    whose both ends lie on the cycle are oriented so that each one
    points to the next copy along the cycle.
    """
    on_cycle = [i for i, (u, v) in enumerate(copies)
                if u in cycle_vertices and v in cycle_vertices]
    nxt = {}
    for i in on_cycle:
        for j in on_cycle:
            if i != j and set(copies[i]) & set(copies[j]):
                nxt.setdefault(i, []).append(j)
    start = on_cycle[0]
    order = [start]
    prev = None
    cur = start
    while True:
        step = [j for j in nxt[cur] if j != prev][0]
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
    if rng.random() < 0.5:
        order.reverse()
    return {(order[i], order[(i + 1) % len(order)]) for i in range(len(order))}


def strip_composition(rng):
    """A strip composition on a three-vertex hub, at most 8 vertices.

    The hub is a triangle, sometimes with one more (parallel) edge.  Each
    hub edge carries a linear interval strip, a path power P_s^k on two
    or three vertices whose end cliques are its first and last vertex.
    The strips are laid side by side and, at each hub vertex, the ends
    of the strips meeting there are made one clique.  Returns (n, edges)
    with unshuffled labels.
    """
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
        power = path_power(size, rng.randint(1, 2))
        edges.update((offset + u, offset + v) for u, v in power)
        ends[x].append(offset)
        ends[y].append(offset + size - 1)
        offset += size
    for clique in ends.values():
        edges.update(combinations(sorted(clique), 2))
    return offset, sorted(edges)


def graph6(n, edges):
    """The graph6 word of a graph with fewer than 63 vertices."""
    adjacent = {tuple(sorted(e)) for e in edges}
    bits = [(u, v) in adjacent for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    groups = (bits[i:i + 6] for i in range(0, len(bits), 6))
    return chr(63 + n) + "".join(
        chr(63 + sum(b << (5 - j) for j, b in enumerate(g))) for g in groups)


def edge_list_text(n, edges):
    """The plain edge-list format: a header 'n m', then one 'u v' per line."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])
