"""The four workloads: seeded instance cycles and how each is checked.

``build(rng, cc, workdir)`` returns a list of cycles; a cycle is a list
of ``Instance`` objects holding colorcert inputs.  ``cc`` carries the
colorcert modules imported for this set-up.  A run repeats whole cycles
(the program keeps no state between calls) until its time is used.
Reference answers are thunks, evaluated outside the timed region.
"""

import contextlib
import io
import json
import os
from functools import partial

import gen
import oracles
from harness import Instance, equals, equals_lazy

CYCLES = 48


# ---------------------------------------------------------------------------
# shared call wrappers: each returns (verdict, certificates_ok)

def _at(cc, tr, g, f):
    ok, cert = tr.call("alon_tarsi.is_f_AT", cc.alon_tarsi.is_f_AT, g, f,
                       outcome=lambda r: r[0])
    if not ok:
        return False, True
    checked = tr.call("alon_tarsi.certificate_check", cert.check)
    return True, checked and cert.graph == g


def _galvin(cc, tr, b, budget):
    lg, _ = tr.call("graphs.line_graph", cc.graphs.line_graph, b)
    cert = tr.call("kernel.galvin_orientation", cc.kernel.galvin_orientation, b)
    checked = tr.call("kernel.certificate_check", cert.check)
    outs = cert.digraph.out_degrees()
    fits = cert.f.values == budget and all(o < k for o, k in zip(outs, budget))
    return lg, cert, checked and fits and cert.graph == lg


def _painter_never_loses(cc, tr, g, f, cert):
    try:
        tr.call("paint.kernel_painter_play", cc.paint.kernel_painter_play,
                g, f, cert, adversary="exhaustive")
    except (AssertionError, RuntimeError):
        return False
    return True


def _simple(cc, n, edges):
    return cc.graphs.SimpleGraph.from_edges(n, edges)


def _budget(cc, values):
    return cc.graphs.ListSizeFn(tuple(values))


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _degree_budget(n, edges):
    return [max(d, 1) for d in _degrees(n, edges)]


def _galvin_budget(records):
    deg = {}
    for u, v, m in records:
        deg[u] = deg.get(u, 0) + m
        deg[v] = deg.get(v, 0) + m
    return tuple(max(deg[u], deg[v]) for u, v in gen.edge_copies(records))


# ---------------------------------------------------------------------------
# orientation: the coefficient DP of alon_tarsi

def _random_graph(rng, n_range, p_range):
    while True:
        n = rng.randint(*n_range)
        edges = gen.random_graph(rng, n, rng.uniform(*p_range))
        if edges:
            return n, edges


def _orientation_cycle(rng, cc, _workdir, index):
    insts = []

    def at_instance(family, n, edges, budget, judge):
        g = _simple(cc, n, edges)
        f = _budget(cc, budget)
        insts.append(Instance(family, partial(_at, cc, g=g, f=f), judge))

    # cheap seeded random graphs, about a third of the instances
    for _ in range(3):
        n, edges = _random_graph(rng, (6, 7), (0.35, 0.6))
        at_instance("random_degree_budget", n, edges, _degree_budget(n, edges),
                    equals_lazy(partial(oracles.degree_colorable_everywhere, n, edges)))
    for _ in range(2):
        n, edges = _random_graph(rng, (6, 7), (0.35, 0.6))
        k = oracles.degeneracy(n, edges) + 1
        at_instance("random_degeneracy_plus_one", n, edges, [k] * n, equals(True))
    n, edges = _random_graph(rng, (6, 7), (0.35, 0.6))
    k = oracles.chromatic_number(n, edges) - 1
    at_instance("random_below_chromatic", n, edges, [k] * n, equals(False))

    # known families, relabelled.  The counts put as many instances below
    # the four L(K_{3,3}) questions (about 2 ms) as above them, so that the
    # median falls among those four.
    for t in (3, 3, 4, 4, 4):
        at_instance("k2t", 2 * t, gen.relabel(2 * t, gen.k2t(t), rng), [t] * (2 * t),
                    equals(True))
    for s, t in ((3, 2), (1, 3), (1, 3), (2, 3)):
        n = s + 2 * t
        at_instance("clique_join_k2t", n, gen.relabel(n, gen.clique_join_k2t(s, t), rng),
                    [s + t] * n, equals(True))
    lk33 = oracles.line_graph_edges(gen.edge_copies(
        [(u, v, 1) for u, v in gen.complete_bipartite(3, 3)]))
    for _ in range(4):
        at_instance("line_k33_no", 9, gen.relabel(9, lk33, rng), [3] * 9, equals(False))

    digraphs = []
    for entry in cc.catalog.catalog():
        d = entry.digraph
        perm = list(range(d.n))
        rng.shuffle(perm)
        arcs = [(perm[u], perm[v]) for u, v in sorted(d.arcs)]
        digraphs.append((cc.graphs.Digraph.from_arcs(d.n, arcs), (entry.ee, entry.eo)))

    def catalog_counts(tr):
        got = [tr.call("alon_tarsi.eulerian_counts", cc.alon_tarsi.eulerian_counts, d)
               for d, _ in digraphs]
        return tuple(got), True

    insts.append(Instance("catalog_eulerian_counts", catalog_counts,
                          equals(tuple(want for _, want in digraphs))))
    return insts


# ---------------------------------------------------------------------------
# linegraph: kernel, discharging and graphs.line_graph

def _characterization(cc, tr, d, root):
    return tr.call("kernel.kp_line_characterization", cc.kernel.kp_line_characterization,
                   d, root, outcome=bool), True


def _unsound_characterization(n, arcs, verdict):
    # ROADMAP item 2: the characterization never finds an odd hole, so it
    # calls an orientation with a one-way odd hole kernel-perfect.  Its
    # rule also reads one-way arcs only, so it calls some orientations
    # with bidirected pairs kernel-perfect although a subset has no
    # kernel; without bidirected pairs a one-way odd hole is the only
    # such obstruction.
    if not verdict:
        return None
    if oracles.strict_odd_hole(n, arcs):
        return "kp_characterization_misses_odd_holes"
    arcset = set(arcs)
    if any((v, u) in arcset for u, v in arcs):
        return "kp_characterization_ignores_bidirected_pairs"
    return None


def _discharging(cc, tr, h, delta):
    """Host multigraph to a ledger, a certificate, or a refused witness."""
    dis = cc.discharging
    a, b = tr.call("discharging.maxcut_partition", dis.maxcut_partition, h)
    side = {v: 0 for v in a} | {v: 1 for v in b}
    half_cut = all(
        2 * sum(m for x, y, m in h.edges if v in (x, y) and side[x] != side[y])
        >= h.degree(v)
        for v in range(h.n)
    )
    k, _ = tr.call("discharging.degeneracy", dis.degeneracy, h)
    out = tr.call("discharging.discharge", dis.discharge, h,
                  outcome=lambda r: not isinstance(r, dis.ChargeLedger))
    if isinstance(out, dis.ChargeLedger):
        ok = sum(out.final.values()) == sum(out.initial.values())
        return (k, "ledger", None), ok and half_cut
    witness = (out.b.edges, out.original_vertices)
    try:
        cert = tr.call("discharging.witness_to_kp", dis.witness_to_kp, h, out, delta)
    except ValueError as exc:
        if "invalid witness" not in str(exc):
            raise
        return (k, "refused", witness), half_cut
    ok = tr.call("kernel.certificate_check", cert.check)
    return (k, "certified", witness), ok and half_cut


def _partition(cc, tr, h):
    """The exhaustive max-cut partition and the degeneracy of a larger host."""
    dis = cc.discharging
    a, b = tr.call("discharging.maxcut_partition", dis.maxcut_partition, h)
    side = set(a)
    cut = sum(m for u, v, m in h.edges if (u in side) != (v in side))
    k, _ = tr.call("discharging.degeneracy", dis.degeneracy, h)
    return (cut, k), sorted(a + b) == list(range(h.n))


def _partition_reference(n, records):
    return oracles.max_cut(n, records), oracles.multigraph_degeneracy(n, records)


def _judge_discharging(n, records, verdict):
    k, route, witness = verdict
    if k != oracles.multigraph_degeneracy(n, records):
        return True, None
    if route == "ledger":
        return False, None
    b_edges, host_vertex = witness
    if (route == "certified") == oracles.witness_covers(records, b_edges, host_vertex):
        return False, None
    # ROADMAP item 5: the program looks host degrees up by witness-local
    # ids; if that reading explains its decision, the defect is the cause.
    local = range(len(host_vertex))
    if (route == "certified") == oracles.witness_covers(records, b_edges, local):
        return True, "witness_check_uses_local_ids"
    return True, None


def _linegraph_cycle(rng, cc, _workdir, index):
    insts = []
    MultiGraph = cc.graphs.MultiGraph

    def galvin_instance(family, records):
        n = 1 + max(max(u, v) for u, v, _ in records)
        b = MultiGraph.from_edges(n, records)
        budget = _galvin_budget(records)

        def galvin(tr):
            _, _, ok = _galvin(cc, tr, b, budget)
            return True, ok

        insts.append(Instance(family, galvin, equals(True)))

    a = (5, 6, 7)[index % 3]
    galvin_instance("galvin_complete_bipartite", gen.relabel_records(
        2 * a, [(u, v, 1) for u, v in gen.complete_bipartite(a, a)], rng))
    for a, k in ((3, 2), (5, 3), (7, 2)):
        galvin_instance("galvin_regular_multigraph",
                        gen.regular_bipartite_multigraph(rng, a, k))
    galvin_instance("galvin_irregular_multigraph", gen.random_bipartite_multigraph(
        rng, rng.randint(2, 3), rng.randint(3, 4), 0.7, 2))

    # Hosts stay at 7 vertices with multiplicity at most 2: on larger
    # hosts some witnesses (1 in 100 at 9 vertices, 1 in 600 at 8) send
    # galvin_orientation into a star-order search that runs for minutes.
    for _ in range(2):
        n = 7
        a = rng.randint(2, 3)
        records = gen.random_bipartite_multigraph(rng, a, n - a, rng.uniform(0.3, 0.6), 2)
        h = MultiGraph.from_edges(n, records)
        delta = 2 * max(h.degrees())
        insts.append(Instance("discharging_bipartite_host",
                              partial(_discharging, cc, h=h, delta=delta),
                              partial(_judge_discharging, n, records)))
    for _ in range(3):
        n = 14
        records = gen.random_multigraph_with_pairs(rng, n, 28, 3)
        h = MultiGraph.from_edges(n, records)
        insts.append(Instance("discharging_partition", partial(_partition, cc, h=h),
                              equals_lazy(partial(_partition_reference, n, records))))

    for i in range(12):
        if i % 2:
            while True:
                n = rng.randint(5, 7)
                records = gen.random_multigraph(rng, n, rng.uniform(0.3, 0.6), 2)
                if 3 <= sum(m for _, _, m in records) <= 10:
                    break
            cycle_arcs = set()
            family = "characterization_random"
        else:
            k = rng.choice((5, 7, 9))
            extra = rng.randint(0, 10 - k)
            records, on_cycle = gen.odd_cycle_with_pendants(rng, k, extra)
            n = k + extra
            copies = gen.edge_copies(records)
            cycle_arcs = (gen.around_the_cycle(copies, on_cycle, rng)
                          if rng.random() < 0.5 else set())
            family = "characterization_odd_cycle"
        copies = gen.edge_copies(records)
        lg_edges = oracles.line_graph_edges(copies)
        free = [(u, v) for u, v in lg_edges
                if (u, v) not in cycle_arcs and (v, u) not in cycle_arcs]
        arcs = sorted(cycle_arcs) + gen.random_orientation(rng, free)
        d = cc.graphs.Digraph.from_arcs(len(copies), arcs)
        root = MultiGraph.from_edges(n, records)
        insts.append(Instance(
            family, partial(_characterization, cc, d=d, root=root),
            equals_lazy(partial(oracles.is_kernel_perfect, len(copies), arcs),
                        defect=partial(_unsound_characterization, len(copies), arcs))))
    return insts


# ---------------------------------------------------------------------------
# games: the online and offline game solvers of paint

def _paintable(cc, tr, g, f):
    ok, transcript = tr.call("paint.is_f_paintable", cc.paint.is_f_paintable, g, f,
                             outcome=lambda r: r[0])
    return ok, transcript.winner == ("Painter" if ok else "Lister")


def _choosable(cc, tr, g, f, n, edges):
    ok, bad = tr.call("paint.is_f_choosable", cc.paint.is_f_choosable, g, f,
                      outcome=lambda r: r[0])
    if ok:
        return True, True
    fits = [len(bad[v]) == f(v) for v in range(n)]
    return False, all(fits) and not oracles.list_colorable(n, edges, bad)


def _kp_then_play(cc, tr, g, f):
    cert = tr.call("kernel.is_f_KP", cc.kernel.is_f_KP, g, f,
                   outcome=lambda r: r is not None)
    if cert is None:
        return False, True
    checked = tr.call("kernel.certificate_check", cert.check)
    return True, checked and _painter_never_loses(cc, tr, g, f, cert)


def _games_cycle(rng, cc, _workdir, index):
    insts = []

    def add(kind, family, n, edges, budget, judge):
        g = _simple(cc, n, edges)
        f = _budget(cc, budget)
        if kind == "paint":
            run = partial(_paintable, cc, g=g, f=f)
        elif kind == "choose":
            run = partial(_choosable, cc, g=g, f=f, n=n, edges=edges)
        else:
            run = partial(_kp_then_play, cc, g=g, f=f)
        insts.append(Instance(family, run, judge))

    def rel(n, edges):
        return gen.relabel(n, edges, rng)

    # The cost of a random question rises about fourfold with each vertex
    # (near 0.6, 2.6 and 8 ms at 5, 6 and 7 vertices), so the vertex counts
    # are fixed per cycle: a seed-drawn mix would move the p50 along the
    # gaps between them.  The p50 falls among the 6-vertex questions.
    for k in (5, 5, 6, 6, 6, 6, 6, 7):
        n, edges = _random_graph(rng, (k, k), (0.4, 0.7))
        add("paint", "paint_random_degree_budget", n, edges, _degree_budget(n, edges),
            equals_lazy(partial(oracles.degree_colorable_everywhere, n, edges)))
    add("paint", "paint_k2t", 6, rel(6, gen.k2t(3)), [3] * 6, equals(True))
    add("paint", "paint_odd_cycle", 5, rel(5, gen.cycle(5)), [2] * 5, equals(False))
    add("paint", "paint_even_cycle", 6, rel(6, gen.cycle(6)), [2] * 6, equals(True))
    add("paint", "paint_k23", 5, rel(5, gen.complete_bipartite(2, 3)), [2] * 5,
        equals(True))
    # the two slowest questions, 1 to 2 s each, come in turn every fourth
    # cycle, so each comes once every eight
    if index % 8 == 0:
        lk33 = oracles.line_graph_edges(gen.edge_copies(
            [(u, v, 1) for u, v in gen.complete_bipartite(3, 3)]))
        add("paint", "paint_line_k33", 9, rel(9, lk33), [3] * 9, equals(True))

    for _ in range(2):
        while True:
            n, edges = _random_graph(rng, (5, 5), (0.3, 0.6))
            if sum(_degree_budget(n, edges)) <= 10:
                break
        add("choose", "choose_random_degree_budget", n, edges, _degree_budget(n, edges),
            equals_lazy(partial(oracles.degree_colorable_everywhere, n, edges)))
    # two each of the offline questions near 80 ms: with 10% of a cycle's
    # instances above the p90, the p90 falls in the middle of these
    for _ in range(2):
        add("choose", "choose_k23", 5, rel(5, gen.complete_bipartite(2, 3)), [2] * 5,
            equals(True))
        add("choose", "choose_odd_cycle", 5, rel(5, gen.cycle(5)), [2] * 5,
            equals(False))
    if index % 8 == 4:
        add("choose", "choose_k24", 6, rel(6, gen.complete_bipartite(2, 4)), [2] * 6,
            equals(False))

    for k in (4, 5, 5):
        n, edges = _random_graph(rng, (k, k), (0.4, 0.8))
        # a kernel-perfect certificate implies degree-paintability, so a
        # Gallai tree can have none
        colorable = oracles.degree_colorable_everywhere(n, edges)
        add("kp", "kp_search_then_play", n, edges, _degree_budget(n, edges),
            equals(None if colorable else False))

    while True:
        records = gen.random_bipartite_multigraph(rng, 2, 3, 0.8, 2)
        if 4 <= len(gen.edge_copies(records)) <= 6:
            break
    n = 1 + max(max(u, v) for u, v, _ in records)
    b = cc.graphs.MultiGraph.from_edges(n, records)
    budget = _galvin_budget(records)

    def galvin_then_play(tr):
        lg, cert, ok = _galvin(cc, tr, b, budget)
        return True, ok and _painter_never_loses(cc, tr, lg, cert.f, cert)

    insts.append(Instance("galvin_then_play", galvin_then_play, equals(True)))
    return insts


# ---------------------------------------------------------------------------
# corpus: the CLI on files, as a user runs it

def _cli(cc, tr, name, argv, report):
    """Exit code 0 is a yes, 1 a no; 2 is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = tr.call("cli." + name, cc.cli.main, argv + ["--json", report])
    if code not in (0, 1):
        raise RuntimeError(f"exit code {code}")
    with open(report) as fh:
        doc = json.load(fh)
    return code, doc["results"]


def _cli_verdict(cc, tr, name, argv, report):
    code, _ = _cli(cc, tr, name, argv, report)
    return code == 0, True


def _cli_at_check(cc, tr, argv, report, n, edges):
    """A yes must carry a certificate for the file's graph at f = degree - 1."""
    code, results = _cli(cc, tr, "at_check", argv, report)
    if code == 1:
        return False, True
    cert = cc.alon_tarsi.ATCertificate.from_json(results[0]["payload"]["certificate"])
    same_question = (cert.graph.n == n and cert.graph.edge_list() == sorted(edges)
                     and cert.f.values == tuple(d - 1 for d in _degrees(n, edges)))
    return True, same_question and cert.check()


def _line_k34():
    return oracles.line_graph_edges(gen.edge_copies(
        [(u, v, 1) for u, v in gen.complete_bipartite(3, 4)]))


def _corpus_cycle(rng, cc, workdir, index):
    files = []

    def write(label, n, edges, truth):
        # graph6 and edge-list files alternate, so both parsers run
        if (index + len(files)) % 2:
            path = os.path.join(workdir, f"c{index:02d}_{label}.txt")
            text = gen.edge_list_text(n, edges)
        else:
            path = os.path.join(workdir, f"c{index:02d}_{label}.g6")
            text = gen.graph6(n, edges) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        files.append((path, n, edges, truth))

    for i, size in enumerate((7, 8)):
        while True:
            records = gen.random_multigraph(rng, rng.randint(5, 7), rng.uniform(0.3, 0.5), 2)
            copies = gen.edge_copies(records)
            if len(copies) == size:
                break
        n = len(copies)
        write(f"line{i}", n, gen.relabel(n, oracles.line_graph_edges(copies), rng),
              {"linegraph": True})
    n = (7, 8)[index % 2]
    write("cyclepower", n, gen.relabel(n, gen.cycle_power(n, 2), rng), {"circular": True})
    n = (6, 8)[index % 2]
    write("pathpower", n, gen.relabel(n, gen.path_power(n, 2), rng), {"circular": True})
    n, edges = gen.strip_composition(rng)
    write("strips", n, gen.relabel(n, edges, rng), {})
    n = 7
    edges = gen.random_graph(rng, n, rng.uniform(0.3, 0.6))
    write("random", n, gen.relabel(n, edges, rng), {})
    if index % 2 == 0:
        write("line_k34", 12, gen.relabel(12, _line_k34(), rng), {"linegraph": True})

    report = os.path.join(workdir, "report.json")
    insts = []
    for path, n, edges, truth in files:
        claw = partial(oracles.has_claw, n, edges)
        quasi = partial(oracles.is_quasi_line, n, edges)

        def line_ref(truth=truth, claw=claw, quasi=quasi):
            if "linegraph" in truth:
                return truth["linegraph"]
            # a line graph of a multigraph is claw-free and quasi-line
            return False if claw() or not quasi() else None

        def cmd(name, argv, judge):
            insts.append(Instance("cli_" + name, partial(
                _cli_verdict, cc, name=name, argv=argv, report=report), judge))

        cmd("structure_clawfree", ["structure", "clawfree", path],
            equals_lazy(lambda claw=claw: not claw()))
        cmd("structure_quasiline", ["structure", "quasiline", path], equals_lazy(quasi))
        # on L(K_{3,4}) this call rarely ends inside the limit (ROADMAP
        # item 4); it runs in the defect probe, outside the loop
        if n <= 8:
            cmd("structure_linegraph", ["structure", "linegraph", path],
                equals_lazy(line_ref))
        if n <= 8:
            cmd("structure_circular", ["structure", "circular", path],
                equals(truth.get("circular")))
        cmd("structure_bkscan", ["structure", "bkscan", path, "--max-sub", "3"],
            equals(True))
        if n <= 8 and min(_degrees(n, edges)) >= 2:
            insts.append(Instance("cli_at_check", partial(
                _cli_at_check, cc, argv=["at", "check", path, "--f", "d1"], report=report,
                n=n, edges=edges)))
    if index == 0:
        insts.append(Instance("cli_catalog_verify", partial(
            _cli_verdict, cc, name="catalog_verify", argv=["catalog", "verify"],
            report=report), equals(True)))
    return insts


PROBES = 2


def _corpus_probe(rng, cc, workdir):
    """ROADMAP item 4: ``structure linegraph`` on vertex-shuffled L(K_{3,4}).

    Its isomorphism search rarely ends inside the limit, so these calls
    are not part of the measured loop; the run makes them once, after
    the loop, and reports how many stayed undecided.
    """
    report = os.path.join(workdir, "probe.json")
    insts = []
    for i in range(PROBES):
        path = os.path.join(workdir, f"probe{i}_line_k34.g6")
        with open(path, "w") as fh:
            fh.write(gen.graph6(12, gen.relabel(12, _line_k34(), rng)) + "\n")
        insts.append(Instance("cli_structure_linegraph", partial(
            _cli_verdict, cc, name="structure_linegraph",
            argv=["structure", "linegraph", path], report=report), equals(True)))
    return insts


class Workload:
    """``period``: the cycle pattern repeats every this many cycles, and
    a run ends only on a period boundary so that every run holds the
    same mix of families.  ``probe(rng, cc, workdir)``, if given, builds
    instances of a known defect that never end inside the limit; they
    run once after the loop, outside its counts."""

    def __init__(self, name, make_cycle, limit, period, probe=None):
        self.name = name
        self.make_cycle = make_cycle
        self.limit = limit
        self.period = period
        self.probe = probe

    def build(self, rng, cc, workdir):
        return [self.make_cycle(rng, cc, workdir, i) for i in range(CYCLES)]


WORKLOADS = {
    w.name: w for w in (
        Workload("orientation", _orientation_cycle, 5.0, 1),
        Workload("linegraph", _linegraph_cycle, 5.0, 3),
        Workload("games", _games_cycle, 10.0, 8),
        Workload("corpus", _corpus_cycle, 0.5, 2, _corpus_probe),
    )
}
