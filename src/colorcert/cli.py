"""Command-line front end.

Exit codes: 0 everything verified, 1 a verification failed, 2 bad usage
or unreadable input.  Reports are plain JSON and deterministic for
fixed inputs and seeds; wall-clock timing is printed to the terminal
but kept out of the machine-readable report so reports stay
byte-identical across runs.
"""

import argparse
import json
import os
import sys
import time

from . import alon_tarsi, catalog, discharging, kernel, paint, structure
from .graphs import (
    FormatError, ListSizeFn, load_digraph, load_graph_file, load_multigraph_file,
)

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


class RunReport:
    def __init__(self, command):
        self.command = command
        self.inputs = []
        self.results = []
        self.started = time.time()

    def add_input(self, path):
        # imported on first use: hashlib loads the OpenSSL library, about
        # 3 MB of resident memory that library callers never need
        import hashlib

        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digest = None
        self.inputs.append({"path": str(path), "sha256": digest})

    def add(self, item, ok, payload=None):
        self.results.append({"item": item, "pass": bool(ok), "payload": payload})

    @property
    def all_pass(self):
        return all(r["pass"] for r in self.results)

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "timing": None,
        }

    def emit(self, args):
        elapsed = time.time() - self.started
        for r in self.results:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{status}  {r['item']}")
        print(f"{len(self.results)} item(s), "
              f"{sum(r['pass'] for r in self.results)} passed  "
              f"[{elapsed:.2f}s]")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(self.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0 if self.all_pass else 1


def parse_f_spec(spec, g):
    """Budget specifiers: d1, const:<k>, file:<path>, lowset:<ids>.

    d1 gives every vertex degree minus one; lowset gives the listed
    vertices their full degree and everyone else degree minus one.
    """
    degs = g.degrees()
    if spec == "d1":
        vals = tuple(d - 1 for d in degs)
    elif spec.startswith("const:"):
        vals = (int(spec.split(":", 1)[1]),) * g.n
    elif spec.startswith("file:"):
        with open(spec.split(":", 1)[1]) as fh:
            data = json.load(fh)
        vals = tuple(int(x) for x in data)
        if len(vals) != g.n:
            raise FormatError("budget file length does not match the graph")
    elif spec.startswith("lowset:"):
        ids = spec.split(":", 1)[1]
        lows = {int(x) for x in ids.split(",")} if ids else set()
        if any(not 0 <= v < g.n for v in lows):
            raise FormatError(f"lowset names a vertex outside 0..{g.n - 1}")
        vals = tuple(degs[v] if v in lows else degs[v] - 1 for v in range(g.n))
    else:
        raise FormatError(f"unknown budget specifier {spec!r}")
    if any(x < 1 for x in vals):
        raise FormatError("budget specifier produced a value below 1")
    return ListSizeFn(vals)


# ---------------------------------------------------------------------------
# top-level commands

def cmd_catalog_verify(args):
    report = RunReport("catalog verify")
    wanted = set(args.entry) if args.entry else None

    def selected(tag, name):
        return wanted is None or tag in wanted or name in wanted

    seen = set()
    for entry in catalog.catalog():
        if not selected(entry.tag, entry.name):
            continue
        seen.update((entry.tag, entry.name))
        ok, ee, eo = alon_tarsi.verify_catalog_entry(entry)
        report.add(
            f"orientation {entry.tag} ({entry.name})", ok,
            {"expected": [entry.ee, entry.eo], "computed": [ee, eo]},
        )
    clique_entries = [
        e for e in catalog.clique_order_catalog() if selected(e.tag, e.name)
    ]
    if clique_entries:
        try:
            certs = {c.root: c for c in kernel.mu3_kp_certificates()}
            for e in clique_entries:
                seen.update((e.tag, e.name))
                cert = certs[e.root]
                report.add(
                    f"clique-order {e.tag} ({e.name})", cert.check(),
                    {"outdegrees": cert.digraph.out_degrees()},
                )
        except AssertionError as exc:
            report.add("clique-order entries", False, {"error": str(exc)})
    for tag, name, g, tj in catalog.two_join_catalog():
        if not selected(tag, name):
            continue
        seen.update((tag, name))
        ok, why = structure.verify_2join(g, tj)
        report.add(f"strip {tag} ({name})", ok, {"violation": why})
    if wanted is not None:
        unknown = wanted - seen
        if unknown:
            print(f"unknown entry id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    return report.emit(args)


def cmd_pipeline_linegraph(args):
    report = RunReport("pipeline linegraph")
    report.add_input(args.multigraph)
    h = load_multigraph_file(args.multigraph)
    mu = h.max_multiplicity()
    payload = {"mu": mu}
    if mu >= 4:
        payload["violation"] = (
            "an edge of multiplicity at least 4 forces a reducible "
            "clique-join configuration (catalog entries 1d-1i)"
        )
    triple_on_triangle = False
    support = h.support()
    for u, v, m in h.edges:
        if m >= 3 and any(
            support.has_edge(u, w) and support.has_edge(v, w)
            for w in range(h.n) if w not in (u, v)
        ):
            triple_on_triangle = True
    if triple_on_triangle:
        payload["triple_edge_on_triangle"] = (
            "a triple edge on a triangle matches the clique-order "
            "catalog entries 3a-3c"
        )
    report.add("multiplicity screen", mu <= 3 and not triple_on_triangle, payload)
    a, b = discharging.maxcut_partition(h)
    report.add("partition", True, {"A": list(a), "B": list(b)})
    k, order = discharging.degeneracy(h)
    report.add("degeneracy", True, {"degeneracy": k, "order": order})
    outcome = discharging.discharge(h)
    if isinstance(outcome, discharging.ChargeLedger):
        report.add("discharge ledger", outcome.settled(), outcome.to_json())
    else:
        delta = args.delta if args.delta is not None else max(h.degrees()) * 2
        item = {"witness": outcome.to_json()}
        try:
            cert = discharging.witness_to_kp(h, outcome, delta)
            item["certificate"] = cert.to_json()
            report.add("discharge witness", cert.check(), item)
        except (ValueError, RuntimeError) as exc:
            item["error"] = str(exc)
            report.add("discharge witness", False, item)
    return report.emit(args)


def cmd_corpus(args):
    report = RunReport(f"corpus {args.task}")
    try:
        names = sorted(os.listdir(args.dir))
    except OSError as exc:
        print(f"cannot read corpus directory: {exc}", file=sys.stderr)
        return 2
    for name in names:
        path = os.path.join(args.dir, name)
        if not os.path.isfile(path):
            continue
        report.add_input(path)
        try:
            g = load_graph_file(path)
            if args.cap_vertices and g.n > args.cap_vertices:
                raise ValueError(f"over --cap-vertices ({g.n})")
            if args.cap_edges and len(g.edges) > args.cap_edges:
                raise ValueError(f"over --cap-edges ({len(g.edges)})")
            f = parse_f_spec(args.f, g)
            if args.task == "at":
                ok, cert = alon_tarsi.is_f_AT(g, f)
                report.add(name, True, {"f_AT": ok})
            elif args.task == "kp":
                cert = kernel.is_f_KP(g, f, allow_doubling=args.double)
                report.add(name, True, {"f_KP": cert is not None})
            elif args.task == "paint":
                ok, _ = paint.is_f_paintable(g, f)
                report.add(name, True, {"f_paintable": ok})
            elif args.task == "scan":
                hits = structure.bk_free_scan(g, delta=args.delta, max_sub=args.max_sub)
                report.add(name, True, {"reducible_pieces": len(hits)})
        except (FormatError, ValueError, OSError) as exc:
            report.add(name, False, {"error": str(exc)})
    return report.emit(args)


# ---------------------------------------------------------------------------
# per-module commands

def cmd_at(args):
    report = RunReport(f"at {args.at_cmd}")
    if args.at_cmd == "count":
        report.add_input(args.digraph)
        d = load_digraph(args.digraph)
        ee, eo = alon_tarsi.eulerian_counts(d)
        report.add("eulerian counts", ee != eo, {"even": ee, "odd": eo})
    elif args.at_cmd == "check":
        report.add_input(args.graph)
        g = load_graph_file(args.graph)
        f = parse_f_spec(args.f, g)
        ok, cert = alon_tarsi.is_f_AT(g, f)
        payload = {"f_AT": ok}
        if cert:
            payload["certificate"] = cert.to_json()
        report.add("orientation certificate", ok, payload)
    elif args.at_cmd == "coeff":
        report.add_input(args.graph)
        g = load_graph_file(args.graph)
        exps = tuple(int(x) for x in args.exponents.split(","))
        if len(exps) != g.n:
            raise ValueError("exponent vector length mismatch")
        if sum(exps) != len(g.edges):
            raise ValueError("exponents must sum to the edge count")
        c = alon_tarsi.poly_coefficient_expand(g, exps)
        report.add("coefficient", True, {"exponents": list(exps), "value": c})
    return report.emit(args)


def cmd_kp(args):
    report = RunReport(f"kp {args.kp_cmd}")
    if args.kp_cmd == "check":
        report.add_input(args.digraph)
        d = load_digraph(args.digraph)
        ok, failing = kernel.is_kernel_perfect(d)
        report.add("kernel-perfect", ok,
                   {"failing_set": sorted(failing) if failing else None})
    elif args.kp_cmd == "search":
        report.add_input(args.graph)
        g = load_graph_file(args.graph)
        f = parse_f_spec(args.f, g)
        cert = kernel.is_f_KP(g, f, allow_doubling=args.double)
        report.add("kernel certificate", cert is not None,
                   cert.to_json() if cert else None)
    elif args.kp_cmd == "galvin":
        report.add_input(args.bipartite)
        b = load_multigraph_file(args.bipartite)
        cert = kernel.galvin_orientation(b)
        report.add("bipartite line-graph certificate", cert.check(), cert.to_json())
    elif args.kp_cmd == "mu3":
        try:
            for cert, entry in zip(kernel.mu3_kp_certificates(),
                                   catalog.clique_order_catalog()):
                report.add(f"{entry.tag} ({entry.name})", cert.check(),
                           {"outdegrees": cert.digraph.out_degrees()})
        except AssertionError as exc:
            report.add("clique-order certificates", False, {"error": str(exc)})
    return report.emit(args)


def cmd_paint(args):
    report = RunReport(f"paint {args.paint_cmd}")
    if args.paint_cmd == "solve":
        report.add_input(args.graph)
        g = load_graph_file(args.graph)
        f = parse_f_spec(args.f, g)
        ok, transcript = paint.is_f_paintable(g, f)
        report.add("paintable", ok, {"transcript": transcript.to_json()})
    elif args.paint_cmd == "play":
        report.add_input(args.cert)
        with open(args.cert) as fh:
            cert = kernel.KPCertificate.from_json(json.load(fh))
        transcript = paint.kernel_painter_play(
            cert.graph, cert.f, cert, adversary=args.adversary
        )
        report.add("kernel painter", transcript.winner == "Painter",
                   {"transcript": transcript.to_json()})
    return report.emit(args)


def cmd_choose(args):
    report = RunReport("choose solve")
    report.add_input(args.graph)
    g = load_graph_file(args.graph)
    f = parse_f_spec(args.f, g)
    ok, failing = paint.is_f_choosable(g, f)
    payload = {"choosable": ok}
    if failing is not None:
        payload["failing_lists"] = [sorted(s) for s in failing]
    report.add("choosable", ok, payload)
    return report.emit(args)


def cmd_structure(args):
    report = RunReport(f"structure {args.structure_cmd}")
    sc = args.structure_cmd
    if sc in ("clawfree", "quasiline", "linegraph", "homopairs", "circular", "bkscan"):
        report.add_input(args.graph)
        g = load_graph_file(args.graph)
    if sc == "clawfree":
        ok, witness = structure.is_claw_free(g)
        report.add("claw-free", ok, {"claw": list(witness) if witness else None})
    elif sc == "quasiline":
        ok, v = structure.is_quasi_line(g)
        report.add("quasi-line", ok, {"vertex": v})
    elif sc == "linegraph":
        root = structure.recognize_line_graph(g)
        report.add("line graph", root is not None,
                   {"root_edges": [list(e) for e in root.edges]} if root else None)
    elif sc == "homopairs":
        pairs = structure.find_homogeneous_pairs(g, nonlinear_only=args.nonlinear)
        report.add("homogeneous pairs", True,
                   {"pairs": [[sorted(p.a1), sorted(p.a2)] for p in pairs]})
    elif sc == "circular":
        order = structure.is_circular_interval(g)
        report.add("circular interval", order is not None, {"order": order})
    elif sc == "bkscan":
        hits = structure.bk_free_scan(g, delta=args.delta, max_sub=args.max_sub)
        report.add("reducible pieces", True,
                   {"hits": [[list(vs), kind] for vs, kind, _ in hits]})
    elif sc == "compose":
        report.add_input(args.spec)
        with open(args.spec) as fh:
            spec = structure.CompositionSpec.from_json(json.load(fh))
        g = structure.compose(spec)
        report.add("composition", True, {"n": g.n, "edges": g.edge_list()})
    elif sc == "2join":
        report.add_input(args.graph)
        report.add_input(args.tj)
        g = load_graph_file(args.graph)
        with open(args.tj) as fh:
            tj = structure.TwoJoin.from_json(json.load(fh))
        if args.join_cmd == "verify":
            ok, why = structure.verify_2join(g, tj)
            report.add("strip conditions", ok, {"violation": why})
        else:
            reduced = structure.reduce_2join(g, tj)
            ok, why = structure.verify_2join(g, reduced)
            report.add("reduction", ok,
                       {"reduced": reduced.to_json(), "violation": why})
    return report.emit(args)


def cmd_discharge(args):
    report = RunReport(f"discharge {args.discharge_cmd}")
    report.add_input(args.multigraph)
    h = load_multigraph_file(args.multigraph)
    if args.discharge_cmd == "run":
        edge_sum_ok = all(
            h.degree(u) + h.degree(v) >= max(h.degrees()) + 2 for u, v, _ in h.edges
        )
        outcome = discharging.discharge(h)
        if isinstance(outcome, discharging.ChargeLedger):
            report.add("ledger", outcome.settled(),
                       {"edge_sum_hypothesis": edge_sum_ok, **outcome.to_json()})
        else:
            payload = {"edge_sum_hypothesis": edge_sum_ok,
                       "witness": outcome.to_json()}
            if args.delta is not None:
                try:
                    cert = discharging.witness_to_kp(h, outcome, args.delta)
                    payload["certificate"] = cert.to_json()
                except (ValueError, RuntimeError) as exc:
                    payload["error"] = str(exc)
            report.add("witness", "error" not in payload, payload)
    elif args.discharge_cmd == "partition":
        a, b = discharging.maxcut_partition(h)
        report.add("partition", True, {"A": list(a), "B": list(b)})
    elif args.discharge_cmd == "degeneracy":
        k, order = discharging.degeneracy(h)
        report.add("degeneracy", True, {"degeneracy": k, "order": order})
    return report.emit(args)


# ---------------------------------------------------------------------------
# argument wiring

def _add_json_flag(p, suppress=False):
    p.add_argument("--json", metavar="PATH",
                   default=argparse.SUPPRESS if suppress else None,
                   help="write the machine-readable report here")


def build_parser():
    p = argparse.ArgumentParser(
        prog="colorcert",
        description="certificates for list-coloring bounds: orientations, "
                    "kernels, game solvers, structure recognizers",
    )
    _add_json_flag(p)
    # --json is accepted after the subcommand too; SUPPRESS keeps the
    # inner copy from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    _add_json_flag(common, suppress=True)
    sub = p.add_subparsers(dest="cmd", required=True)

    at = sub.add_parser("at", help="orientation certificates")
    at_sub = at.add_subparsers(dest="at_cmd", required=True)
    c = at_sub.add_parser("count", parents=[common])
    c.add_argument("digraph")
    c = at_sub.add_parser("check", parents=[common])
    c.add_argument("graph")
    c.add_argument("--f", required=True)
    c = at_sub.add_parser("coeff", parents=[common])
    c.add_argument("graph")
    c.add_argument("--exponents", required=True)
    at.set_defaults(func=cmd_at)

    kp = sub.add_parser("kp", help="kernel certificates")
    kp_sub = kp.add_subparsers(dest="kp_cmd", required=True)
    c = kp_sub.add_parser("check", parents=[common])
    c.add_argument("digraph")
    c = kp_sub.add_parser("search", parents=[common])
    c.add_argument("graph")
    c.add_argument("--f", required=True)
    c.add_argument("--double", action="store_true")
    c = kp_sub.add_parser("galvin", parents=[common])
    c.add_argument("bipartite")
    kp_sub.add_parser("mu3", parents=[common])
    kp.set_defaults(func=cmd_kp)

    pa = sub.add_parser("paint", help="online game solver and players")
    pa_sub = pa.add_subparsers(dest="paint_cmd", required=True)
    c = pa_sub.add_parser("solve", parents=[common])
    c.add_argument("graph")
    c.add_argument("--f", required=True)
    c = pa_sub.add_parser("play", parents=[common])
    c.add_argument("--cert", required=True)
    c.add_argument("--adversary", default="exhaustive")
    pa.set_defaults(func=cmd_paint)

    ch = sub.add_parser("choose", help="list-assignment solver")
    ch_sub = ch.add_subparsers(dest="choose_cmd", required=True)
    c = ch_sub.add_parser("solve", parents=[common])
    c.add_argument("graph")
    c.add_argument("--f", required=True)
    ch.set_defaults(func=cmd_choose)

    st = sub.add_parser("structure", help="recognizers and constructions")
    st_sub = st.add_subparsers(dest="structure_cmd", required=True)
    for name in ("clawfree", "quasiline", "linegraph", "circular"):
        c = st_sub.add_parser(name, parents=[common])
        c.add_argument("graph")
    c = st_sub.add_parser("homopairs", parents=[common])
    c.add_argument("graph")
    c.add_argument("--nonlinear", action="store_true")
    c = st_sub.add_parser("bkscan", parents=[common])
    c.add_argument("graph")
    c.add_argument("--delta", type=int, default=None)
    c.add_argument("--max-sub", type=int, default=None)
    c = st_sub.add_parser("compose", parents=[common])
    c.add_argument("spec")
    c = st_sub.add_parser("2join", parents=[common])
    c.add_argument("join_cmd", choices=["verify", "reduce"])
    c.add_argument("graph")
    c.add_argument("tj")
    st.set_defaults(func=cmd_structure)

    di = sub.add_parser("discharge", help="charge ledgers and partitions")
    di_sub = di.add_subparsers(dest="discharge_cmd", required=True)
    c = di_sub.add_parser("run", parents=[common])
    c.add_argument("multigraph")
    c.add_argument("--delta", type=int, default=None)
    c = di_sub.add_parser("partition", parents=[common])
    c.add_argument("multigraph")
    c = di_sub.add_parser("degeneracy", parents=[common])
    c.add_argument("multigraph")
    di.set_defaults(func=cmd_discharge)

    ca = sub.add_parser("catalog", help="verify the built-in catalog")
    ca_sub = ca.add_subparsers(dest="catalog_cmd", required=True)
    c = ca_sub.add_parser("verify", parents=[common])
    c.add_argument("--entry", action="append", default=None,
                   help="restrict to these entry ids or names (repeatable)")
    ca.set_defaults(func=cmd_catalog_verify)

    pi = sub.add_parser("pipeline", help="multigraph-to-certificate pipelines")
    pi_sub = pi.add_subparsers(dest="pipeline_cmd", required=True)
    c = pi_sub.add_parser("linegraph", parents=[common])
    c.add_argument("multigraph")
    c.add_argument("--delta", type=int, default=None)
    pi.set_defaults(func=cmd_pipeline_linegraph)

    co = sub.add_parser("corpus", parents=[common], help="apply one task to a directory of graphs")
    co.add_argument("dir")
    co.add_argument("--task", choices=["at", "kp", "paint", "scan"], required=True)
    co.add_argument("--f", default="d1")
    co.add_argument("--double", action="store_true")
    co.add_argument("--delta", type=int, default=None)
    co.add_argument("--max-sub", type=int, default=None)
    co.add_argument("--cap-vertices", type=int, default=0)
    co.add_argument("--cap-edges", type=int, default=0)
    co.set_defaults(func=cmd_corpus)

    return p


_parser = None


def main(argv=None):
    # built on the first call, not at import: importing stays cheap, and
    # every later call in the process reuses it
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
