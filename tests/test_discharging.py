import random
from fractions import Fraction
from itertools import combinations

import pytest

from colorcert import discharging, kernel
from colorcert.graphs import MultiGraph, complete_bipartite, complete_graph
from conftest import random_multigraph


def _mg(n, pairs):
    return MultiGraph.from_edges(n, [(u, v, m) for u, v, m in pairs])


def test_maxcut_matches_brute_force(rng):
    for _ in range(10):
        h = random_multigraph(rng, rng.randint(2, 7), rng.randint(1, 8))
        a, b = discharging.maxcut_partition(h)
        assert sorted(list(a) + list(b)) == list(range(h.n))
        aset = set(a)
        got = sum(m for u, v, m in h.edges if (u in aset) != (v in aset))
        best = 0
        for size in range(h.n + 1):
            for side in combinations(range(h.n), size):
                s = set(side)
                cut = sum(m for u, v, m in h.edges if (u in s) != (v in s))
                best = max(best, cut)
        assert got == best


def test_maxcut_tiebreak_minimizes_squared_multiplicity():
    h = _mg(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    a, b = discharging.maxcut_partition(h)
    aset = set(a)
    assert sum(m for u, v, m in h.edges if (u in aset) != (v in aset)) == 3
    # the best cut 6 is reached by {0, 3} | {1, 2} with squares 10 and
    # by {0, 1, 3} | {2} with squares 12
    h = _mg(4, [(0, 1, 1), (0, 2, 2), (1, 2, 2), (1, 3, 1), (2, 3, 2)])
    assert discharging.maxcut_partition(h) == ((0, 3), (1, 2))
    # relabelled so that the squares-12 cut has the least side-A tuple:
    # only the squares can make {0, 2} | {1, 3} win
    h = _mg(4, [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 1), (2, 3, 1)])
    assert discharging.maxcut_partition(h) == ((0, 2), (1, 3))


def test_degeneracy_values():
    tree = _mg(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    k, order = discharging.degeneracy(tree)
    assert k == 1 and len(order) == 4
    k5 = MultiGraph.from_edges(5, complete_graph(5).edge_list())
    assert discharging.degeneracy(k5)[0] == 4
    doubled = _mg(2, [(0, 1, 3)])
    assert discharging.degeneracy(doubled)[0] == 3


def test_degeneracy_matches_networkx_on_simple(rng):
    import networkx as nx

    for _ in range(10):
        h = random_multigraph(rng, rng.randint(2, 8), rng.randint(1, 10),
                              max_mult=1)
        nxg = nx.Graph([(u, v) for u, v, _ in h.edges])
        nxg.add_nodes_from(range(h.n))
        expect = max(nx.core_number(nxg).values())
        assert discharging.degeneracy(h)[0] == expect


def mad_exact(h, cap=14):
    """Maximum average degree over all nonempty vertex subsets."""
    if h.n > cap:
        raise ValueError(f"exact search capped at {cap} vertices")
    from fractions import Fraction

    best = Fraction(0)
    for size in range(1, h.n + 1):
        for vs in combinations(range(h.n), size):
            vset = set(vs)
            e = sum(m for u, v, m in h.edges if u in vset and v in vset)
            best = max(best, Fraction(2 * e, size))
    return best


def test_mad_exact():
    c4 = MultiGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert mad_exact(c4) == Fraction(2)
    tree = _mg(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    assert mad_exact(tree) == Fraction(3, 2)
    dbl = _mg(2, [(0, 1, 2)])
    assert mad_exact(dbl) == Fraction(2)


def test_peel_witness_validity():
    star = MultiGraph.from_edges(6, complete_bipartite(1, 5).edge_list())
    outcome = discharging.peel_witness(star, 5)
    kind, payload = outcome
    assert kind == "witness"
    assert payload.is_valid(star)


def test_discharge_ledger_on_k13():
    k13 = MultiGraph.from_edges(13, complete_graph(13).edge_list())
    outcome = discharging.discharge(k13)
    assert isinstance(outcome, discharging.ChargeLedger)
    assert outcome.conserved()
    # no vertex has degree <= 11 here, so nothing to pin at 12
    doc = outcome.to_json()
    assert doc["conserved"]


def test_discharge_ledger_low_vertices_reach_12():
    # K13 with one pendant-ish low vertex attached by two edges
    edges = complete_graph(13).edge_list() + [(0, 13), (1, 13)]
    h = MultiGraph.from_edges(14, edges)
    outcome = discharging.discharge(h)
    assert isinstance(outcome, discharging.ChargeLedger)
    assert outcome.conserved()
    degs = h.degrees()
    for v in range(h.n):
        if 0 < degs[v] <= 11:
            assert outcome.final[v] == 12


def test_k77_witness_to_certificate():
    k77 = MultiGraph.from_edges(14, complete_bipartite(7, 7).edge_list())
    outcome = discharging.discharge(k77)
    assert isinstance(outcome, discharging.BipartiteWitness)
    assert outcome.is_valid(k77)
    cert = discharging.witness_to_kp(k77, outcome, delta=14)
    assert cert.check()
    # outdegree bound: below the budget everywhere
    for v in range(cert.graph.n):
        assert cert.digraph.out_degree(v) < cert.f(v)


@pytest.mark.parametrize("k77_first", [True, False])
def test_witness_checks_host_degrees_by_host_ids(k77_first):
    # K_14 plus a disjoint K_{7,7}: the witness is the K_{7,7}, and its
    # local ids 0-13 name K_14 vertices unless the K_{7,7} comes first
    k14 = complete_graph(14).edge_list()
    k77 = complete_bipartite(7, 7).edge_list()
    if k77_first:
        edges = k77 + [(u + 14, v + 14) for u, v in k14]
    else:
        edges = k14 + [(u + 14, v + 14) for u, v in k77]
    h = MultiGraph.from_edges(28, edges)
    outcome = discharging.discharge(h)
    assert isinstance(outcome, discharging.BipartiteWitness)
    assert outcome.original_vertices == tuple(range(14) if k77_first else range(14, 28))
    assert outcome.to_json()["original_vertices"] == list(outcome.original_vertices)
    assert outcome.is_valid(h)
    cert = discharging.witness_to_kp(h, outcome, delta=14)
    assert cert.check()


def test_witness_to_kp_rejects_bad_delta():
    k77 = MultiGraph.from_edges(14, complete_bipartite(7, 7).edge_list())
    outcome = discharging.discharge(k77)
    with pytest.raises(ValueError):
        discharging.witness_to_kp(k77, outcome, delta=7)


# ---------------------------------------------------------------------------
# the exhaustive max cut against the earlier per-bipartition scan

def _maxcut_oracle(h, cap=16):
    """Best vertex bipartition under (max crossing edges, min crossing
    sum of squared multiplicities), lexicographically.

    Exhaustive below the cap; single-vertex-move local search beyond,
    which still guarantees every vertex keeps at least half its degree
    across the cut.
    """
    if h.n == 0:
        return (), ()

    def objective(in_a):
        cut = 0
        sq = 0
        for u, v, m in h.edges:
            if in_a[u] != in_a[v]:
                cut += m
                sq += m * m
        return cut, sq

    if h.n <= cap:
        best = None
        best_obj = None
        for bits in range(1 << (h.n - 1)):
            in_a = [True] + [bool(bits >> i & 1) for i in range(h.n - 1)]
            cut, sq = objective(in_a)
            obj = (-cut, sq, tuple(in_a))
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best = in_a
        in_a = best
    else:
        in_a = [v % 2 == 0 for v in range(h.n)]
        improved = True
        while improved:
            improved = False
            cur = objective(in_a)
            for v in range(h.n):
                in_a[v] = not in_a[v]
                new = objective(in_a)
                if (-new[0], new[1]) < (-cur[0], cur[1]):
                    cur = new
                    improved = True
                else:
                    in_a[v] = not in_a[v]
    a = tuple(v for v in range(h.n) if in_a[v])
    b = tuple(v for v in range(h.n) if not in_a[v])
    return a, b


def _relabelled(rng, n, records):
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph.from_edges(n, [(perm[u], perm[v], m) for u, v, m in records])


def _tie_heavy_hosts(rng):
    """Hosts with many optimal cuts, so the tie-breaks decide."""
    hosts = [MultiGraph.from_edges(1, []), MultiGraph.from_edges(5, [])]
    for n in range(3, 12):
        cycle = [(i, (i + 1) % n, 1) for i in range(n)]
        hosts.append(MultiGraph.from_edges(n, cycle))
        hosts.append(_relabelled(rng, n, cycle))
        # one doubled edge makes the crossing squares differ between cuts
        hosts.append(_relabelled(rng, n, [(0, 1, 2)] + cycle[1:]))
    for t in range(1, 6):
        k2t = [(u, v, 1) for u, v in combinations(range(2 * t), 2)]
        hosts.append(MultiGraph.from_edges(2 * t, k2t))
        hosts.append(_relabelled(rng, 2 * t, [(u, v, 1 + (u + v) % 3) for u, v, _ in k2t]))
    for n, k in ((6, 2), (8, 3), (10, 4), (12, 3)):
        # circulant k-regular multigraphs with multiplicities 1-3
        records = [(i, (i + s) % n, 1 + (i + s) % 3) for i in range(n) for s in range(1, k // 2 + 1)]
        if k % 2:
            records += [(i, i + n // 2, 2) for i in range(n // 2)]
        hosts.append(_relabelled(rng, n, records))
    for _ in range(10):
        # isolated vertices and twin classes tie many bipartitions
        n = rng.randint(6, 12)
        h = random_multigraph(rng, n // 2, rng.randint(1, n), max_mult=3)
        hosts.append(_relabelled(rng, n, h.edges))
    return hosts


def test_maxcut_matches_the_per_bipartition_scan(rng):
    hosts = [random_multigraph(rng, n, rng.randint(0, n * (n - 1) // 2), max_mult=3)
             for n in range(1, 13) for _ in range(8)]
    hosts += _tie_heavy_hosts(rng)
    for n, pairs in ((14, 28), (14, 40), (16, 30), (16, 24)):
        hosts.append(random_multigraph(rng, n, pairs, max_mult=3))
    for h in hosts:
        assert discharging.maxcut_partition(h) == _maxcut_oracle(h), h.edges


def test_maxcut_local_search_beyond_the_exhaustive_size(rng):
    n = discharging.MAXCUT_EXHAUSTIVE_VERTICES + 2
    h = random_multigraph(rng, n, 40, max_mult=3)
    a, b = discharging.maxcut_partition(h)
    assert (a, b) == _maxcut_oracle(h)
    side = set(a)
    for v in range(n):
        crossing = sum(m for x, y, m in h.edges if v in (x, y) and (x in side) != (y in side))
        assert 2 * crossing >= h.degree(v)


# ---------------------------------------------------------------------------
# the branch-and-bound max cut against the earlier Gray-code walk

def _gray_code_maxcut(h):
    """Side-A mask of the best bipartition with vertex 0 on side A.

    Vertex v is bit n-1-v, so vertex 0 is the most significant bit and
    numeric order on masks is lexicographic order on indicator tuples;
    the minimum of (-cut, sq, mask) is the exhaustive objective with its
    tie-break.  The 2^(n-1) masks are walked in Gray-code order: step i
    flips vertex n-1-ctz(i), and the cut and squared-multiplicity sums
    change by the flipped vertex's neighbours on each side, counted per
    multiplicity class from neighbour bitmasks.
    """
    n = h.n
    bit = [1 << (n - 1 - v) for v in range(n)]
    by_mult = [{} for _ in range(n)]
    for u, v, m in h.edges:
        by_mult[u][m] = by_mult[u].get(m, 0) | bit[v]
        by_mult[v][m] = by_mult[v].get(m, 0) | bit[u]
    classes = [tuple(c.items()) for c in by_mult]
    full = (1 << n) - 1
    side = full  # every vertex on side A: nothing crosses
    cut = sq = 0
    best_cut, best_sq, best_side = 0, 0, side
    for i in range(1, 1 << (n - 1)):
        v = n - (i & -i).bit_length()
        same = side if side & bit[v] else full ^ side
        for m, mask in classes[v]:
            gain = (mask & same).bit_count() - (mask & ~same).bit_count()
            cut += m * gain
            sq += m * m * gain
        side ^= bit[v]
        if cut > best_cut or cut == best_cut and (
                sq < best_sq or sq == best_sq and side < best_side):
            best_cut, best_sq, best_side = cut, sq, side
    return best_side


# the pinned `discharge partition` host of tests/test_cli.py: 40
# bipartitions share the best (cut, squares)
_TIED14 = MultiGraph.from_edges(14, [
    (0, 7, 1), (0, 9, 1), (1, 5, 1), (1, 7, 2), (2, 4, 1), (2, 8, 1), (3, 9, 2),
    (3, 12, 1), (4, 11, 1), (5, 12, 1), (6, 10, 2), (6, 13, 1), (8, 11, 1), (10, 13, 1)])


def _benchmark_shaped_hosts():
    """20 fixed hosts shaped like the benchmark's partition hosts:
    14 vertices, exactly 28 adjacent pairs, multiplicity 1-3."""
    rng = random.Random(1428)
    return [_relabelled(rng, 14, random_multigraph(rng, 14, 28, max_mult=3).edges)
            for _ in range(20)]


def test_branch_and_bound_matches_the_gray_code_walk(rng):
    hosts = [random_multigraph(rng, n, rng.randint(0, n * (n - 1) // 2), max_mult=3)
             for n in range(1, 13) for _ in range(8)]
    hosts += _tie_heavy_hosts(rng)
    hosts += [_TIED14] + _benchmark_shaped_hosts()
    for n, pairs in ((15, 28), (15, 45), (16, 32)):
        hosts.append(random_multigraph(rng, n, pairs, max_mult=3))
    for h in hosts:
        assert discharging._exhaustive_maxcut(h) == _gray_code_maxcut(h), h.edges
    for h in hosts[-24:]:
        assert discharging.maxcut_partition(h) == _maxcut_oracle(h), h.edges


def test_branch_and_bound_prunes_by_its_bound(monkeypatch):
    # the search without its bound places a vertex 2^n - 1 = 16383 times
    # on a 14-vertex host; the Gray-code walk takes 8191 steps
    place = discharging._place
    placed = []

    def counting(*a):
        placed.append(1)
        return place(*a)

    monkeypatch.setattr(discharging, "_place", counting)
    for h in [_TIED14] + _benchmark_shaped_hosts():
        placed.clear()
        discharging.maxcut_partition(h)
        assert len(placed) <= 2048, h.edges
