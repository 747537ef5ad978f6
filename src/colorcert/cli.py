"""Command-line front end.

Exit codes: 0 everything verified, 1 a verification failed, 2 bad usage,
unreadable input or a report that cannot be written.  Reports are plain
JSON and deterministic for fixed inputs and seeds; wall-clock timing is
printed to stderr and kept out of stdout and the machine-readable
report, so both stay byte-identical across runs.
"""

import argparse
import json
import os
import stat
import sys
import time

# CPython's own sha256, without the OpenSSL library that hashlib loads
# (about 3.6 MB of resident memory for one digest per input)
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import alon_tarsi, catalog, discharging, kernel, paint, structure
from .graphs import FormatError, ListSizeFn, digraph_from_json, read_graph, read_multigraph

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


class RunReport:
    def __init__(self, command):
        self.command = command
        self.inputs = []
        self.results = []
        self.started = time.time()

    def add_input(self, path):
        """Read an input file once, record its sha256 and return its bytes.

        An unreadable file is recorded with a null digest, and its
        OSError propagates.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            self.inputs.append({"path": str(path), "sha256": None})
            raise
        self.inputs.append({"path": str(path), "sha256": sha256(data).hexdigest()})
        return data

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
        """Print each result and the pass count on stdout and the elapsed
        time on stderr, then write the report to `args.json` if given.

        The report is written over PATH in place: opened without
        truncating, written, then cut at the end of what was written.
        On ext4, truncating a file that holds data and writing it again
        makes its close flush, which costs more than a small command's
        whole solve.  Only a regular file is cut: a pipe, a FIFO or a
        device needs no cut, and /dev/null, though seekable, refuses one.
        A PATH that cannot be written exits 2.
        """
        elapsed = time.time() - self.started
        for r in self.results:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{status}  {r['item']}")
        print(f"{len(self.results)} item(s), "
              f"{sum(r['pass'] for r in self.results)} passed")
        print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
        if args.json:
            data = (json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n").encode()
            try:
                fd = os.open(args.json, os.O_WRONLY | os.O_CREAT, 0o666)
                try:
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view):]
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        os.ftruncate(fd, len(data))
                finally:
                    os.close(fd)
            except OSError as exc:
                print(f"cannot write report {args.json}: {exc.strerror or exc}",
                      file=sys.stderr)
                return 2
        return 0 if self.all_pass else 1


def budget_fn(spec, report):
    """The budgets a specifier names, as a function of the graph:
    d1, const:<k>, file:<path>, lowset:<ids>.

    d1 gives every vertex degree minus one; lowset gives the listed
    vertices their full degree and everyone else degree minus one.  A
    budget file is read here, once, through `report`, so the report
    records its sha256 once however many graphs it is applied to.
    """
    from_file = None
    if spec.startswith("file:"):
        data = json.loads(report.add_input(spec.split(":", 1)[1]))
        if not (isinstance(data, list) and all(type(x) is int for x in data)):
            raise FormatError("budget file is not a JSON list of ints")
        from_file = tuple(data)

    def budgets(g):
        degs = g.degrees()
        if spec == "d1":
            vals = tuple(d - 1 for d in degs)
        elif spec.startswith("const:"):
            vals = (int(spec.split(":", 1)[1]),) * g.n
        elif spec.startswith("file:"):
            vals = from_file
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

    return budgets


# ---------------------------------------------------------------------------
# top-level commands

def add_clique_order_items(report, prefix, keep):
    """Add an item per clique-order catalog entry that `keep(tag, name)`
    admits, named prefix + "TAG (NAME)".  It passes when the entry's
    stored degree and out-degree rows (where stored) match and `check()`,
    run once, holds; a wrong row is named in the payload."""
    for entry, cert in zip(catalog.clique_order_catalog(), catalog.mu3_kp_certificates()):
        if not keep(entry.tag, entry.name):
            continue
        outs = cert.digraph.out_degrees()
        payload = {"outdegrees": outs}
        for row, got, stored in (("degree", cert.graph.degrees(), entry.expected_degrees),
                                 ("out-degree", outs, entry.expected_outdegrees)):
            if stored is not None and tuple(got) != stored:
                payload.setdefault("error", f"{row} row {tuple(got)} != {stored}")
        report.add(f"{prefix}{entry.tag} ({entry.name})",
                   cert.check() and "error" not in payload, payload)


def cmd_catalog_verify(args):
    report = RunReport("catalog verify")
    wanted = set(args.entry) if args.entry else None
    seen = set()

    def selected(tag, name):
        """Whether the entry is wanted; a wanted one counts as seen."""
        if wanted is None or tag in wanted or name in wanted:
            seen.update((tag, name))
            return True
        return False

    for entry in catalog.catalog():
        if not selected(entry.tag, entry.name):
            continue
        ok, ee, eo = alon_tarsi.verify_catalog_entry(entry)
        report.add(
            f"orientation {entry.tag} ({entry.name})", ok,
            {"expected": [entry.ee, entry.eo], "computed": [ee, eo]},
        )
    add_clique_order_items(report, "clique-order ", selected)
    for tag, name, g, tj in catalog.two_join_catalog():
        if not selected(tag, name):
            continue
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
    h = read_multigraph(report.add_input(args.multigraph))
    mu = h.max_multiplicity()
    payload = {"mu": mu}
    if mu >= 4:
        payload["violation"] = (
            "an edge of multiplicity at least 4 forces a reducible "
            "clique-join configuration (catalog entries 1d-1i)"
        )
    adj = h.adjacency_masks()
    triple_on_triangle = any(m >= 3 and adj[u] & adj[v] for u, v, m in h.edges)
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
    budgets = budget_fn(args.f, report)
    for name in names:
        path = os.path.join(args.dir, name)
        if not os.path.isfile(path):
            continue
        try:
            g = read_graph(report.add_input(path))
            if args.cap_vertices and g.n > args.cap_vertices:
                raise ValueError(f"over --cap-vertices ({g.n})")
            m = sum(g.degrees()) // 2
            if args.cap_edges and m > args.cap_edges:
                raise ValueError(f"over --cap-edges ({m})")
            f = budgets(g)
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
        d = digraph_from_json(json.loads(report.add_input(args.digraph)))
        ee, eo = alon_tarsi.eulerian_counts(d)
        report.add("eulerian counts", ee != eo, {"even": ee, "odd": eo})
    elif args.at_cmd == "check":
        g = read_graph(report.add_input(args.graph))
        f = budget_fn(args.f, report)(g)
        ok, cert = alon_tarsi.is_f_AT(g, f)
        payload = {"f_AT": ok}
        if cert:
            payload["certificate"] = cert.to_json()
        report.add("orientation certificate", ok, payload)
    elif args.at_cmd == "coeff":
        g = read_graph(report.add_input(args.graph))
        exps = tuple(int(x) for x in args.exponents.split(","))
        if len(exps) != g.n:
            raise ValueError("exponent vector length mismatch")
        if sum(exps) != sum(g.degrees()) // 2:
            raise ValueError("exponents must sum to the edge count")
        c = alon_tarsi.poly_coefficient_expand(g, exps)
        report.add("coefficient", True, {"exponents": list(exps), "value": c})
    return report.emit(args)


def cmd_kp(args):
    report = RunReport(f"kp {args.kp_cmd}")
    if args.kp_cmd == "check":
        d = digraph_from_json(json.loads(report.add_input(args.digraph)))
        ok, failing = kernel.is_kernel_perfect(d)
        report.add("kernel-perfect", ok,
                   {"failing_set": sorted(failing) if failing else None})
    elif args.kp_cmd == "search":
        g = read_graph(report.add_input(args.graph))
        f = budget_fn(args.f, report)(g)
        cert = kernel.is_f_KP(g, f, allow_doubling=args.double)
        report.add("kernel certificate", cert is not None,
                   cert.to_json() if cert else None)
    elif args.kp_cmd == "galvin":
        b = read_multigraph(report.add_input(args.bipartite))
        cert = kernel.galvin_orientation(b)
        report.add("bipartite line-graph certificate", cert.check(), cert.to_json())
    elif args.kp_cmd == "mu3":
        add_clique_order_items(report, "", lambda _tag, _name: True)
    return report.emit(args)


def cmd_paint(args):
    report = RunReport(f"paint {args.paint_cmd}")
    if args.paint_cmd == "solve":
        g = read_graph(report.add_input(args.graph))
        f = budget_fn(args.f, report)(g)
        ok, transcript = paint.is_f_paintable(g, f)
        report.add("paintable", ok, {"transcript": transcript.to_json()})
    elif args.paint_cmd == "play":
        cert = kernel.KPCertificate.from_json(json.loads(report.add_input(args.cert)))
        # the kernel strategy presumes a certificate that holds
        if not cert.check():
            report.add("kernel painter", False, {"error": "certificate fails its check"})
        else:
            transcript = paint.kernel_painter_play(
                cert.graph, cert.f, cert, adversary=args.adversary
            )
            report.add("kernel painter", transcript.winner == "Painter",
                       {"transcript": transcript.to_json()})
    return report.emit(args)


def cmd_choose(args):
    report = RunReport("choose solve")
    g = read_graph(report.add_input(args.graph))
    f = budget_fn(args.f, report)(g)
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
        g = read_graph(report.add_input(args.graph))
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
        spec = structure.CompositionSpec.from_json(json.loads(report.add_input(args.spec)))
        g = structure.compose(spec)
        report.add("composition", True, {"n": g.n, "edges": g.edge_list()})
    elif sc == "2join":
        g = read_graph(report.add_input(args.graph))
        tj = structure.TwoJoin.from_json(json.loads(report.add_input(args.tj)))
        if args.join_cmd == "verify":
            ok, why = structure.verify_2join(g, tj)
            report.add("strip conditions", ok, {"violation": why})
        else:
            # a valid strip that cannot be reduced is a "no", not bad input
            reduced = structure.reduce_2join(g, tj)
            ok, why = (False, None) if reduced is None else structure.verify_2join(g, reduced)
            report.add("reduction", ok,
                       {"reduced": reduced and reduced.to_json(), "violation": why})
    return report.emit(args)


def cmd_discharge(args):
    report = RunReport(f"discharge {args.discharge_cmd}")
    h = read_multigraph(report.add_input(args.multigraph))
    if args.discharge_cmd == "run":
        deg = h.degrees()
        top = max(deg, default=0)
        edge_sum_ok = all(deg[u] + deg[v] >= top + 2 for u, v, _ in h.edges)
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
