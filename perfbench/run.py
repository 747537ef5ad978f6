"""Time to a verified verdict on colorcert, one workload per run.

    python3 perfbench/run.py --workload orientation --seed 1 --seconds 20 --trace 0

The benchmark is one process with one caller in a closed loop: the next
instance is sent only after the previous verdict, certificate re-check
included, has come back.  Inputs come from ``--seed``; every verdict is
compared with a reference the benchmark computes itself.  Human-readable
lines come first; the last line of standard output is one JSON object.
With ``--trace 1`` every cycle is also run with spans around the
benchmark's calls into each module, and the per-layer metrics are
reported instead of the end-to-end ones.

Limits of in-process measurement: spans cover only the benchmark's own
calls into colorcert's public functions (nothing inside the program is
instrumented), times are wall-clock times of this process on a shared
machine, scaled to a reference speed by a benchmark-owned gauge
(``harness.SpeedGauge``), and nothing machine-wide is traced or reset
(no cache dropping, no CPU pinning).
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 7
MODULES = ("graphs", "alon_tarsi", "kernel", "paint", "structure",
           "discharging", "catalog", "cli")
# The measured loop stops this long after the start, even inside a cycle,
# so that a run ends well inside three minutes even when every instance
# hits its limit.
LOOP_DEADLINE_S = 120.0

PER_LAYER = {
    "graphs.line_graph": ("calls", "busy_ms", "share"),
    "alon_tarsi.is_f_AT": ("calls", "busy_ms", "p50_ms", "share", "yes_share"),
    "alon_tarsi.certificate_check": ("busy_ms", "share"),
    "alon_tarsi.eulerian_counts": ("calls", "busy_ms"),
    "kernel.galvin_orientation": ("calls", "busy_ms", "p50_ms", "share"),
    "kernel.certificate_check": ("busy_ms", "share"),
    "kernel.kp_line_characterization": ("calls", "busy_ms", "share"),
    "kernel.is_f_KP": ("calls", "busy_ms", "yes_share"),
    "discharging.maxcut_partition": ("busy_ms", "share"),
    "discharging.degeneracy": ("busy_ms",),
    "discharging.discharge": ("calls", "busy_ms", "yes_share"),
    "discharging.witness_to_kp": ("calls", "busy_ms", "failed"),
    "paint.is_f_paintable": ("calls", "busy_ms", "p50_ms", "share"),
    "paint.is_f_choosable": ("calls", "busy_ms", "share", "failed"),
    "paint.kernel_painter_play": ("calls", "busy_ms", "share"),
    **{
        f"cli.{cmd}": ("calls", "busy_ms", "p50_ms", "failed")
        for cmd in ("structure_clawfree", "structure_quasiline", "structure_linegraph",
                    "structure_circular", "structure_bkscan", "at_check",
                    "catalog_verify")
    },
}
UNITS = {"calls": "count", "busy_ms": "ms", "p50_ms": "ms", "share": "ratio",
         "failed": "count", "yes_share": "ratio"}


def fresh_colorcert():
    """Import colorcert from this checkout's sources, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "colorcert" or m.startswith("colorcert.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"colorcert.{name}") for name in MODULES}
    package = sys.modules["colorcert"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "colorcert"):
        raise ImportError(f"colorcert imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**mods)


def set_up(workload, seed, workdir, gauge):
    """Import colorcert and build every input; repeated, median reported.

    The last build is the one the run uses.  Each earlier one, with the
    modules it imported, is dropped and collected before the next starts.
    Each set-up time is scaled by the gauge readings on either side of it.
    """
    times = []
    gauge.sample()
    for _ in range(SETUPS):
        cc = cycles = None
        gc.collect()
        before = len(gauge.samples) - gauge.REPEATS
        start = time.perf_counter()
        cc = fresh_colorcert()
        cycles = workload.build(random.Random(seed), cc, workdir)
        elapsed = time.perf_counter() - start
        gauge.sample()
        times.append(elapsed * gauge.scale(before))
    # the inputs live as long as the run: keep the collector from walking
    # them again on every full collection inside the timed calls
    gc.collect()
    gc.freeze()
    return statistics.median(times), cc, cycles


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    gauge = harness.SpeedGauge()
    try:
        try:
            setup_s, cc, cycles = set_up(workload, args.seed, workdir, gauge)
        except ImportError as exc:
            print(f"cannot import colorcert: {exc}", file=sys.stderr)
            return 2
        loop = harness.run_loop(
            cycles, workload.period, args.seconds, workload.limit, args.trace == 1,
            started + LOOP_DEADLINE_S, gauge)
        probe = []
        if workload.probe:
            probe = harness.run_probe(
                workload.probe(random.Random(f"probe-{args.seed}"), cc, workdir),
                workload.limit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if not loop.samples:
        print("no instance was timed before the loop deadline", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = harness.summarize(loop.samples, loop.wall)
    scale = gauge.scale()

    print(f"workload {args.workload}  seed {args.seed}  closed loop, one caller  "
          f"per-instance limit {workload.limit:g} s  trace {args.trace}")
    print(f"  speed gauge: {1000 * gauge.REFERENCE_S / scale:.4f} ms (median of "
          f"{len(gauge.samples)}); every time below is at the reference speed, "
          f"where the gauge takes {1000 * gauge.REFERENCE_S:g} ms")
    print(f"  instances attempted {s.attempted}, decided {s.decided}, "
          f"measured wall {loop.spent:.2f} s ({loop.wall:.2f} s at the reference speed), "
          f"slowest decided {s.slowest_decided_ms:.1f} ms")
    end_to_end = {
        "setup_s": metric(setup_s, "s"),
        "verdict_p50_ms": metric(s.p50_ms, "ms"),
        "verdict_p90_ms": metric(s.p90_ms, "ms"),
        "throughput_per_s": metric(s.throughput, "1/s"),
        "decided_share": metric(s.decided / s.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    counts = {
        "setup_s": f"median of {SETUPS} set-ups",
        "verdict_p50_ms": f"n={s.attempted}",
        "verdict_p90_ms": f"n={s.attempted}, {s.beyond_p90} beyond",
        "throughput_per_s": f"{s.decided} decided in {loop.wall:.2f} s",
        "decided_share": f"{s.decided}/{s.attempted}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, m in end_to_end.items():
        print(f"  {name:18s} {m['value']:12.4f} {m['unit']:6s} ({counts[name]})")
    print(f"  {'wrong_verdicts':18s} {s.wrong:12d} {'count':6s} "
          f"(n={s.decided} decided; {s.unexplained_wrong} not from a known defect)")
    for defect, k in sorted(s.defects.items()):
        print(f"    known defect {defect}: {k}")
    for error, k in sorted(s.errors.items()):
        print(f"    undecided {error}: {k}")
    probe_undecided = sum(not p.decided for p in probe)
    probe_wrong = sum(p.wrong for p in probe)
    if probe:
        print(f"  defect probe, outside the loop and its counts: "
              f"{probe_undecided} of {len(probe)} undecided at the limit, "
              f"{probe_wrong} wrong")

    if args.trace == 1:
        stats = loop.tracer.layer_stats(loop.spent, scale)
        metrics = {}
        for layer, fields in PER_LAYER.items():
            row = stats.get(layer, {})
            for field in fields:
                metrics[f"{layer}.{field}"] = metric(row.get(field, 0), UNITS[field])
        overhead = 100.0 * (loop.spent / loop.untraced - 1.0) if loop.untraced > 0 else 0.0
        metrics["trace.overhead_pct"] = metric(overhead, "%")
        metrics["check.wrong_verdicts"] = metric(s.wrong, "count")
        metrics["probe.undecided"] = metric(probe_undecided, "count")
        print(f"  traced wall {loop.spent:.2f} s, untraced wall of the same cycles "
              f"{loop.untraced:.2f} s, tracing overhead {overhead:.2f} %")
        for name in sorted(stats, key=lambda k: -stats[k]["share"]):
            row = stats[name]
            print(f"    {name:34s} calls {row['calls']:6d}  busy {row['busy_ms']:10.1f} ms  "
                  f"p50 {row['p50_ms']:9.3f} ms  share {row['share']:.3f}  "
                  f"failed {row['failed']}  yes {row['yes_share']:.2f}")
    else:
        metrics = end_to_end

    print(json.dumps({
        "correct": s.unexplained_wrong == 0 and probe_wrong == 0,
        "attempted": s.attempted,
        "failed": s.attempted - s.decided,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
