"""Command-line front end.

Exit codes: 0 everything verified, 1 a verification failed, 2 bad usage,
unreadable input or a report that cannot be written.  Reports are plain
JSON and deterministic for fixed inputs and seeds; wall-clock timing is
printed to stderr and kept out of stdout and the machine-readable
report, so both stay byte-identical across runs.

A certificate is checked once: by the function that made it
(`kernel.galvin_orientation`; `discharging.witness_to_kp` only raises
the budgets of its certificate), else by the command that reports it
(`paint play`, `catalog verify`, `kp mu3`).
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
        With `--json -` the report goes alone to stdout, and the result
        lines and the count go to stderr.

        The report is written over PATH in place: opened without
        truncating, written, then cut at the end of what was written.
        On ext4, truncating a file that holds data and writing it again
        makes its close flush, which costs more than a small command's
        whole solve.  Only a regular file is cut: a pipe, a FIFO or a
        device needs no cut, and /dev/null, though seekable, refuses one.
        A PATH that is the file stdout writes to (/dev/stdout, say) gets
        the report through stdout's own descriptor, after the lines and
        uncut; a stdout without a descriptor is never that file.  A PATH
        that cannot be written exits 2.
        """
        elapsed = time.time() - self.started
        lines = sys.stderr if args.json == "-" else sys.stdout
        for r in self.results:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{status}  {r['item']}", file=lines)
        print(f"{len(self.results)} item(s), "
              f"{sum(r['pass'] for r in self.results)} passed", file=lines)
        print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
        code = 0 if all(r["pass"] for r in self.results) else 1
        if not args.json:
            return code
        text = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
            return code
        data = text.encode()
        try:
            fd = os.open(args.json, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                st = os.fstat(fd)
                out = fd
                try:
                    if os.path.samestat(st, os.fstat(sys.stdout.fileno())):
                        sys.stdout.flush()
                        out = sys.stdout.fileno()
                except (AttributeError, OSError, ValueError):
                    pass
                view = memoryview(data)
                while view:
                    view = view[os.write(out, view):]
                if out == fd and stat.S_ISREG(st.st_mode):
                    os.ftruncate(fd, len(data))
            finally:
                os.close(fd)
        except OSError as exc:
            print(f"cannot write report {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        return code


def budget_fn(spec, report):
    """The budgets a specifier names, as a function of the graph:
    d1, const:<k>, file:<path>, lowset:<ids>.

    d1 gives every vertex degree minus one; lowset gives the listed
    vertices their full degree and everyone else degree minus one.  The
    specifier is parsed here, once, before any graph: a budget file is
    read through `report`, so the report records its sha256 once however
    many graphs it is applied to.  Only the checks that need the graph
    are left to each call.
    """
    kind, sep, arg = spec.partition(":")
    kind += sep
    if kind == "const:":
        k = int(arg)
    elif kind == "file:":
        data = json.loads(report.add_input(arg))
        if not (isinstance(data, list) and all(type(x) is int for x in data)):
            raise FormatError("budget file is not a JSON list of ints")
    elif kind == "lowset:" or spec == "d1":
        lows = {int(x) for x in arg.split(",")} if arg else set()
    else:
        raise FormatError(f"unknown budget specifier {spec!r}")

    def budgets(g):
        if kind == "const:":
            vals = (k,) * g.n
        elif kind == "file:":
            vals = tuple(data)
            if len(vals) != g.n:
                raise FormatError("budget file length does not match the graph")
        else:
            if any(not 0 <= v < g.n for v in lows):
                raise FormatError(f"lowset names a vertex outside 0..{g.n - 1}")
            vals = tuple(d - (v not in lows) for v, d in enumerate(g.degrees()))
        if any(x < 1 for x in vals):
            raise FormatError("budget specifier produced a value below 1")
        return ListSizeFn(vals)

    return budgets


def read_input_graph(args, report):
    """The graph file's graph, then its budgets if the command takes --f."""
    g = read_graph(report.add_input(args.graph))
    return g, budget_fn(args.f, report)(g) if "f" in args else None


# ---------------------------------------------------------------------------
# commands: each adds its items to the report that `main` makes and emits

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


def cmd_catalog(args, report):
    wanted = set(args.entry or ())
    seen = set()

    def selected(tag, name):
        """Whether the entry is wanted; a wanted one counts as seen."""
        if not wanted or {tag, name} & wanted:
            seen.update((tag, name))
            return True
        return False

    for entry in catalog.catalog():
        if selected(entry.tag, entry.name):
            stored, got = (entry.ee, entry.eo), alon_tarsi.eulerian_counts(entry.digraph)
            report.add(f"orientation {entry.tag} ({entry.name})", got == stored,
                       {"expected": list(stored), "computed": list(got)})
    add_clique_order_items(report, "clique-order ", selected)
    for tag, name, g, tj in catalog.two_join_catalog():
        if selected(tag, name):
            ok, why = structure.verify_2join(g, tj)
            report.add(f"strip {tag} ({name})", ok, {"violation": why})
    if wanted - seen:
        print(f"unknown entry id(s): {', '.join(sorted(wanted - seen))}", file=sys.stderr)
        return 2


def cmd_pipeline(args, report):
    h = read_multigraph(report.add_input(args.multigraph))
    top = max(h.degrees(), default=0)
    refuse_low_delta(args.delta, top)
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
    delta = args.delta if args.delta is not None else top * 2
    add_discharge_items(report, h, ("partition", "degeneracy", "run"), delta, "discharge ", {})


def cmd_corpus(args, report):
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
            if args.sub == "at":
                ok, _ = alon_tarsi.is_f_AT(g, budgets(g))
                report.add(name, True, {"f_AT": ok})
            elif args.sub == "kp":
                cert = kernel.is_f_KP(g, budgets(g), allow_doubling=args.double)
                report.add(name, True, {"f_KP": cert is not None})
            elif args.sub == "paint":
                ok, _ = paint.is_f_paintable(g, budgets(g))
                report.add(name, True, {"f_paintable": ok})
            elif args.sub == "scan":  # bk_free_scan sets its own budgets
                hits = structure.bk_free_scan(g, delta=args.delta, max_sub=args.max_sub)
                report.add(name, True, {"reducible_pieces": len(hits)})
        except (FormatError, ValueError, OSError) as exc:
            report.add(name, False, {"error": str(exc)})


def cmd_at(args, report):
    if args.sub == "count":
        d = digraph_from_json(json.loads(report.add_input(args.digraph)))
        ee, eo = alon_tarsi.eulerian_counts(d)
        report.add("eulerian counts", ee != eo, {"even": ee, "odd": eo})
        return
    g, f = read_input_graph(args, report)
    if args.sub == "check":
        ok, cert = alon_tarsi.is_f_AT(g, f)
        payload = {"f_AT": ok}
        if cert:
            payload["certificate"] = cert.to_json()
        report.add("orientation certificate", ok, payload)
    elif args.sub == "coeff":
        exps = tuple(int(x) for x in args.exponents.split(","))
        if len(exps) != g.n:
            raise ValueError("exponent vector length mismatch")
        if sum(exps) != sum(g.degrees()) // 2:
            raise ValueError("exponents must sum to the edge count")
        c = alon_tarsi.poly_coefficient_expand(g, exps)
        report.add("coefficient", True, {"exponents": list(exps), "value": c})


def cmd_kp(args, report):
    if args.sub == "check":
        d = digraph_from_json(json.loads(report.add_input(args.digraph)))
        ok, failing = kernel.is_kernel_perfect(d)
        report.add("kernel-perfect", ok, {"failing_set": sorted(failing) if failing else None})
    elif args.sub == "search":
        g, f = read_input_graph(args, report)
        cert = kernel.is_f_KP(g, f, allow_doubling=args.double)
        report.add("kernel certificate", cert is not None, cert.to_json() if cert else None)
    elif args.sub == "galvin":
        b = read_multigraph(report.add_input(args.bipartite))
        cert = kernel.galvin_orientation(b)
        report.add("bipartite line-graph certificate", True, cert.to_json())
    elif args.sub == "mu3":
        add_clique_order_items(report, "", lambda _tag, _name: True)


def cmd_paint(args, report):
    if args.sub == "solve":
        g, f = read_input_graph(args, report)
        ok, transcript = paint.is_f_paintable(g, f)
        report.add("paintable", ok, {"transcript": transcript.to_json()})
    elif args.sub == "play":
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


def cmd_choose(args, report):
    g, f = read_input_graph(args, report)
    ok, failing = paint.is_f_choosable(g, f)
    payload = {"choosable": ok}
    if failing is not None:
        payload["failing_lists"] = [sorted(s) for s in failing]
    report.add("choosable", ok, payload)


def cmd_structure(args, report):
    if args.sub == "compose":
        spec = structure.CompositionSpec.from_json(json.loads(report.add_input(args.spec)))
        g = structure.compose(spec)
        report.add("composition", True, {"n": g.n, "edges": g.edge_list()})
        return
    g, _ = read_input_graph(args, report)
    if args.sub == "clawfree":
        ok, witness = structure.is_claw_free(g)
        report.add("claw-free", ok, {"claw": list(witness) if witness else None})
    elif args.sub == "quasiline":
        ok, v = structure.is_quasi_line(g)
        report.add("quasi-line", ok, {"vertex": v})
    elif args.sub == "linegraph":
        root = structure.recognize_line_graph(g)
        report.add("line graph", root is not None,
                   {"root_edges": [list(e) for e in root.edges]} if root else None)
    elif args.sub == "homopairs":
        pairs = structure.find_homogeneous_pairs(g, nonlinear_only=args.nonlinear)
        report.add("homogeneous pairs", True,
                   {"pairs": [[sorted(p.a1), sorted(p.a2)] for p in pairs]})
    elif args.sub == "circular":
        order = structure.is_circular_interval(g)
        report.add("circular interval", order is not None, {"order": order})
    elif args.sub == "bkscan":
        hits = structure.bk_free_scan(g, delta=args.delta, max_sub=args.max_sub)
        report.add("reducible pieces", True,
                   {"hits": [[list(vs), kind] for vs, kind, _ in hits]})
    elif args.sub == "2join":
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


def add_discharge_items(report, h, subs, delta, prefix, facts):
    """Add the items of the discharge subcommands in `subs`, in the order
    partition, degeneracy, run.  Run's item is prefix + "ledger" or
    prefix + "witness", its payload `facts` plus the ledger, or plus the
    witness and, given `delta`, its kernel certificate, which
    `witness_to_kp` has checked, or the error it refused it with."""
    if "partition" in subs:
        a, b = discharging.maxcut_partition(h)
        report.add("partition", True, {"A": list(a), "B": list(b)})
    if "degeneracy" in subs:
        k, order = discharging.degeneracy(h)
        report.add("degeneracy", True, {"degeneracy": k, "order": order})
    if "run" not in subs:
        return
    outcome = discharging.discharge(h)
    if isinstance(outcome, discharging.ChargeLedger):
        report.add(prefix + "ledger", outcome.settled(), {**facts, **outcome.to_json()})
        return
    payload = {**facts, "witness": outcome.to_json()}
    if delta is not None:
        try:
            payload["certificate"] = discharging.witness_to_kp(h, outcome, delta).to_json()
        except (ValueError, RuntimeError) as exc:
            payload["error"] = str(exc)
    report.add(prefix + "witness", "error" not in payload, payload)


def refuse_low_delta(delta, top):
    """Refuse a `delta` that is given and does not exceed the host's
    maximum degree `top`: bad usage, exit 2, before any item is added."""
    if delta is not None and delta <= top:
        raise ValueError("delta must exceed the maximum degree of the host")


def cmd_discharge(args, report):
    h = read_multigraph(report.add_input(args.multigraph))
    deg = h.degrees()
    top = max(deg, default=0)
    delta = vars(args).get("delta")
    refuse_low_delta(delta, top)
    edge_sum_ok = all(deg[u] + deg[v] >= top + 2 for u, v, _ in h.edges)
    add_discharge_items(report, h, (args.sub,), delta, "",
                        {"edge_sum_hypothesis": edge_sum_ok})


# ---------------------------------------------------------------------------
# argument wiring

# Each option and named positional, declared once; a name not listed is
# a plain positional (an input file).
ARGUMENTS = {
    "--f": {"required": True},
    "--delta": {"type": int, "default": None},
    "--max-sub": {"type": int, "default": None},
    "--double": {"action": "store_true"},
    "--nonlinear": {"action": "store_true"},
    "--exponents": {"required": True},
    "--cert": {"required": True},
    "--adversary": {"default": "exhaustive"},
    "--entry": {"action": "append", "default": None,
                "help": "restrict to these entry ids or names (repeatable)"},
    "join_cmd": {"choices": ["verify", "reduce"]},
}

# group: (help, handler, {subcommand: argument names}); corpus has no
# subcommands and names its task with --task
COMMANDS = {
    "at": ("orientation certificates", cmd_at, {
        "count": ("digraph",), "check": ("graph", "--f"), "coeff": ("graph", "--exponents")}),
    "kp": ("kernel certificates", cmd_kp, {
        "check": ("digraph",), "search": ("graph", "--f", "--double"),
        "galvin": ("bipartite",), "mu3": ()}),
    "paint": ("online game solver and players", cmd_paint, {
        "solve": ("graph", "--f"), "play": ("--cert", "--adversary")}),
    "choose": ("list-assignment solver", cmd_choose, {"solve": ("graph", "--f")}),
    "structure": ("recognizers and constructions", cmd_structure, {
        **dict.fromkeys(("clawfree", "quasiline", "linegraph", "circular"), ("graph",)),
        "homopairs": ("graph", "--nonlinear"), "bkscan": ("graph", "--delta", "--max-sub"),
        "compose": ("spec",), "2join": ("join_cmd", "graph", "tj")}),
    "discharge": ("charge ledgers and partitions", cmd_discharge, {
        "run": ("multigraph", "--delta"),
        **dict.fromkeys(("partition", "degeneracy"), ("multigraph",))}),
    "catalog": ("verify the built-in catalog", cmd_catalog, {"verify": ("--entry",)}),
    "pipeline": ("multigraph-to-certificate pipelines", cmd_pipeline,
                 {"linegraph": ("multigraph", "--delta")}),
    "corpus": ("apply one task to a directory of graphs", cmd_corpus, {}),
}


def cap(text):
    """A --cap-vertices or --cap-edges value: 0 means no cap, a negative
    one is refused, and a non-int gets the message `type=int` gives."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap is 0 (none) or more, not {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="colorcert",
        description="certificates for list-coloring bounds: orientations, "
                    "kernels, game solvers, structure recognizers",
    )
    # --json is accepted after the subcommand too; SUPPRESS keeps the
    # inner copy from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    for parser, default in ((p, None), (common, argparse.SUPPRESS)):
        parser.add_argument("--json", metavar="PATH", default=default,
                            help="write the machine-readable report here; "
                                 "- for stdout alone")
    groups = p.add_subparsers(dest="cmd", required=True)
    for group, (text, _, leaves) in COMMANDS.items():
        parser = groups.add_parser(group, help=text, parents=[] if leaves else [common])
        # argparse names a missing subcommand by its dest; handlers read `sub`
        subs = parser.add_subparsers(dest=f"{group}_cmd", required=True) if leaves else None
        for leaf, names in leaves.items():
            c = subs.add_parser(leaf, parents=[common])
            c.set_defaults(sub=leaf)
            for name in names:
                c.add_argument(name, **ARGUMENTS.get(name, {}))
    # corpus's task is its report's subcommand name
    co = groups.choices["corpus"]
    co.add_argument("dir")
    co.add_argument("--task", dest="sub", choices=["at", "kp", "paint", "scan"], required=True)
    co.add_argument("--f", default="d1")
    for name in ("--double", "--delta", "--max-sub"):
        co.add_argument(name, **ARGUMENTS[name])
    co.add_argument("--cap-vertices", type=cap, default=0)
    co.add_argument("--cap-edges", type=cap, default=0)
    return p


_parser = None


def main(argv=None):
    # built on the first call, not at import: importing stays cheap, and
    # every later call in the process reuses it
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    report = RunReport(f"{args.cmd} {args.sub}")
    try:
        code = COMMANDS[args.cmd][1](args, report)
    except (FormatError, FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report.emit(args) if code is None else code


if __name__ == "__main__":
    sys.exit(main())
