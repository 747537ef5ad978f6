"""Reference answers computed without calling the code under test.

Everything here works on plain data (a vertex count and edge or arc
pairs) and is brute force on purpose: it is slow, obviously right, and
shares no code with colorcert.  The benchmark evaluates these outside
the timed region.
"""

from itertools import combinations


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def has_claw(n, edges):
    """Some vertex with three pairwise non-adjacent neighbours."""
    adj = adjacency(n, edges)
    for v in range(n):
        for a, b, c in combinations(_bits(adj[v]), 3):
            if not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1):
                return True
    return False


def _is_clique(adj, verts):
    return all(adj[a] >> b & 1 for a, b in combinations(verts, 2))


def is_quasi_line(n, edges):
    """Every neighbourhood splits into two cliques (tried exhaustively)."""
    adj = adjacency(n, edges)
    for v in range(n):
        nbrs = _bits(adj[v])
        if not nbrs:
            continue
        first, rest = nbrs[0], nbrs[1:]
        for k in range(len(rest) + 1):
            if any(
                _is_clique(adj, [first, *side])
                and _is_clique(adj, [w for w in rest if w not in side])
                for side in combinations(rest, k)
            ):
                break
        else:
            return False
    return True


def is_kernel_perfect(n, arcs):
    """Every induced subdigraph has a kernel, by trying every subset.

    A kernel of S is an independent K inside S (a bidirected pair is an
    edge) such that every other vertex of S has an out-neighbour in K.
    """
    out = [0] * n
    sup = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
        sup[u] |= 1 << v
        sup[v] |= 1 << u
    for s in range(1, 1 << n):
        verts = _bits(s)
        k = s
        found = False
        while k:
            if all(not (sup[v] & k) for v in _bits(k)) and all(
                out[v] & k for v in verts if not k >> v & 1
            ):
                found = True
                break
            k = (k - 1) & s
        if not found:
            return False
    return True


def strict_odd_hole(n, arcs):
    """An induced cycle of odd length >= 5 directed along one-way arcs."""
    arcset = set(arcs)
    strict = [[] for _ in range(n)]
    for u, v in arcs:
        if (v, u) not in arcset:
            strict[u].append(v)
    adj = adjacency(n, arcs)

    def extend(path, inner):
        # inner: mask of the path's vertices other than its two ends
        first, last = path[0], path[-1]
        for w in strict[last]:
            if w <= first or w in path or adj[w] & inner:
                continue
            if len(path) > 1 and adj[w] >> first & 1:
                # w can only be the closing vertex of the cycle
                length = len(path) + 1
                if length >= 5 and length % 2 and first in strict[w]:
                    return True
                continue
            if extend(path + [w], inner | (1 << last if len(path) > 1 else 0)):
                return True
        return False

    return any(extend([v], 0) for v in range(n))


def _components(n, adj):
    seen = 0
    comps = []
    for s in range(n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = [s]
        while frontier:
            v = frontier.pop()
            new = adj[v] & ~comp
            comp |= new
            frontier.extend(_bits(new))
        seen |= comp
        comps.append(_bits(comp))
    return comps


def _blocks(verts, adj):
    """Edge sets of the blocks of a connected graph (Hopcroft-Tarjan)."""
    disc = {}
    low = {}
    stack = []
    blocks = []

    def dfs(v, parent):
        disc[v] = low[v] = len(disc)
        for w in _bits(adj[v]):
            if w not in disc:
                stack.append((v, w))
                dfs(w, v)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == (v, w):
                            break
                    blocks.append(block)
            elif w != parent and disc[w] < disc[v]:
                stack.append((v, w))
                low[v] = min(low[v], disc[w])

    dfs(verts[0], -1)
    return blocks


def is_gallai_tree(verts, adj):
    """Connected graph whose every block is complete or an odd cycle."""
    for block in _blocks(verts, adj):
        bverts = sorted({x for e in block for x in e})
        k, m = len(bverts), len(block)
        complete = m == k * (k - 1) // 2
        odd_cycle = k >= 3 and k % 2 == 1 and m == k
        if not (complete or odd_cycle):
            return False
    return True


def degree_colorable_everywhere(n, edges):
    """Reference for the budget f(v) = max(d(v), 1).

    A connected graph is degree-AT, degree-paintable and
    degree-choosable exactly when it is not a Gallai tree (Erdos, Rubin
    and Taylor 1979; Hladky, Kral' and Schauz 2010).  Components are
    independent, and an isolated vertex has a spare colour.
    """
    adj = adjacency(n, edges)
    return not any(
        len(comp) > 1 and is_gallai_tree(comp, adj)
        for comp in _components(n, adj)
    )


def chromatic_number(n, edges):
    adj = adjacency(n, edges)
    order = sorted(range(n), key=lambda v: -bin(adj[v]).count("1"))

    def colorable(k):
        color = {}

        def go(i):
            if i == n:
                return True
            v = order[i]
            taken = {color[w] for w in _bits(adj[v]) if w in color}
            for c in range(k):
                if c not in taken:
                    color[v] = c
                    if go(i + 1):
                        return True
                    del color[v]
            return False

        return go(0)

    k = 1 if n else 0
    while not colorable(k):
        k += 1
    return k


def degeneracy(n, edges):
    adj = adjacency(n, edges)
    left = (1 << n) - 1
    best = 0
    while left:
        v = min(_bits(left), key=lambda x: bin(adj[x] & left).count("1"))
        best = max(best, bin(adj[v] & left).count("1"))
        left &= ~(1 << v)
    return best


def multigraph_degeneracy(n, records):
    """Largest minimum degree met while peeling a minimum-degree vertex."""
    deg = [0] * n
    for u, v, m in records:
        deg[u] += m
        deg[v] += m
    left = set(range(n))
    best = 0
    while left:
        v = min(left, key=deg.__getitem__)
        best = max(best, deg[v])
        left.remove(v)
        for x, y, m in records:
            if v in (x, y):
                deg[y if x == v else x] -= m
    return best


def max_cut(n, records):
    """Largest total multiplicity across a vertex bipartition, by trying all.

    Walks the bipartitions with vertex 0 fixed in Gray-code order, so
    each step moves one vertex and updates the cut from its edges only.
    """
    incident = [[] for _ in range(n)]
    for u, v, m in records:
        incident[u].append((v, m))
        incident[v].append((u, m))
    side = [0] * n
    cut = best = 0
    for step in range(1, 1 << (n - 1)):
        v = (step & -step).bit_length()  # vertices 1..n-1
        side[v] ^= 1
        for w, m in incident[v]:
            cut += m if side[w] != side[v] else -m
        best = max(best, cut)
    return best


def witness_covers(host_records, witness_records, host_vertex):
    """The discharging witness invariant, in the host's own labels.

    On every witness edge, an endpoint of least witness degree (either
    endpoint on a tie) has all of its host edges inside the witness.
    ``host_vertex[z]`` is the host vertex behind witness vertex z.
    """
    def degrees(records):
        deg = {}
        for u, v, m in records:
            deg[u] = deg.get(u, 0) + m
            deg[v] = deg.get(v, 0) + m
        return deg

    deg_h = degrees(host_records)
    deg_w = degrees(witness_records)
    for u, v, _ in witness_records:
        low = min(deg_w[u], deg_w[v])
        if not any(deg_w[z] == low and deg_w[z] == deg_h.get(host_vertex[z], 0)
                   for z in (u, v)):
            return False
    return True


def list_colorable(n, edges, lists):
    """A proper colouring choosing each vertex's colour from its list."""
    adj = adjacency(n, edges)
    color = [None] * n

    def go(v):
        if v == n:
            return True
        for c in lists[v]:
            if all(color[w] != c for w in _bits(adj[v]) if w < v):
                color[v] = c
                if go(v + 1):
                    return True
        color[v] = None
        return False

    return go(0)


def line_graph_edges(root_copies):
    """Adjacency of the line graph of a multigraph given its edge copies."""
    return [
        (i, j)
        for i, j in combinations(range(len(root_copies)), 2)
        if set(root_copies[i]) & set(root_copies[j])
    ]
