"""Closed-loop timing, per-instance time limits and in-memory spans.

One caller sends one instance at a time and waits for its verified
verdict before sending the next.  An instance is timed from the call
until the verdict, including the certificate re-check, comes back.
"""

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class TimeLimit(BaseException):
    """Raised by the interval timer when an instance overruns its limit.

    A BaseException so that the program's own ``except Exception`` and
    ``except ValueError`` handlers (``cli.main`` turns those into exit
    code 2) do not swallow it.
    """


def _on_alarm(signum, frame):
    raise TimeLimit()


def certificates_only(verdict):
    """For families with no complete reference: only certificates are checked."""
    return False, None


def equals(expected, defect=None):
    """Judge a verdict against a fixed reference answer (None: no reference)."""
    return equals_lazy(lambda: expected, defect)


def equals_lazy(reference, defect=None):
    """Judge against ``reference()``, computed on first use and kept.

    ``defect(verdict)`` names the ROADMAP defect a disagreement comes
    from, if the benchmark can show it does.
    """
    memo = []

    def judge(verdict):
        if not memo:
            memo.append(reference())
        if memo[0] is None or verdict == memo[0]:
            return False, None
        return True, defect(verdict) if defect else None

    return judge


@dataclass
class Instance:
    """One question put to the program.

    ``run(tracer)`` returns ``(verdict, certs_ok)``: the answer and
    whether every certificate emitted on the way passed its re-check.
    ``judge(verdict)`` returns ``(wrong, defect)`` from the benchmark's
    own reference; it runs after the timed call.
    """

    family: str
    run: Callable
    judge: Callable = certificates_only


@dataclass
class Sample:
    family: str
    seconds: float  # at the reference speed; counted at the limit when undecided
    decided: bool
    wrong: bool = False
    defect: Optional[str] = None
    error: Optional[str] = None


class NullTracer:
    def call(self, name, fn, *args, outcome=None, **kwargs):
        return fn(*args, **kwargs)

    def begin_instance(self, ident):
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    instance: int = -1
    failed: bool = False
    yes: Optional[bool] = None


class Tracer:
    """Spans around the benchmark's own calls into the program.

    Spans stay in memory; ``layer_stats`` summarises them when the run
    ends.  Nothing inside the program is instrumented.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._instance = -1

    def begin_instance(self, ident):
        self._instance = ident

    def call(self, name, fn, *args, outcome=None, **kwargs):
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1,
                    instance=self._instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if outcome is not None:
            span.yes = bool(outcome(result))
        return result

    def layer_stats(self, wall_seconds, scale):
        """Per span name: calls, busy_ms, p50_ms, share, failed, yes_share.

        Self time is a span's duration minus the time its child spans
        cover; ``share`` is self time over the traced wall time.  Times
        are multiplied by ``scale`` (see ``SpeedGauge``).
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        by_name = {}
        for i, sp in enumerate(self.spans):
            by_name.setdefault(sp.name, []).append((sp, child_time[i]))
        stats = {}
        for name, items in by_name.items():
            durations = [sp.end - sp.start for sp, _ in items]
            self_time = sum(d - c for d, (_, c) in zip(durations, items))
            judged = [sp.yes for sp, _ in items if sp.yes is not None]
            stats[name] = {
                "calls": len(items),
                "busy_ms": 1000.0 * scale * sum(durations),
                "p50_ms": 1000.0 * scale * statistics.median(durations),
                "share": self_time / wall_seconds if wall_seconds > 0 else 0.0,
                "failed": sum(sp.failed for sp, _ in items),
                "yes_share": sum(judged) / len(judged) if judged else 0.0,
            }
        return stats


def _gauge_kernel():
    """Fixed pure-Python graph work: set intersections, a memo, BFS."""
    n = 40
    adj = [set() for _ in range(n)]
    for u in range(n):
        for k in (1, 3, 7):
            v = (5 * u + k) % n
            if v != u:
                adj[u].add(v)
                adj[v].add(u)
    total = 0
    memo = {}
    for u in range(n):
        for v in adj[u]:
            if u < v:
                total += len(adj[u] & adj[v])
                memo[(u, v)] = tuple(sorted(adj[u] | adj[v]))
    for s in range(n):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total += sum(dist.values()) * len(memo) % 7919
    return total


class SpeedGauge:
    """The host's speed during a run, read from fixed benchmark-owned work.

    The host is shared and its speed drifts by up to a half over seconds
    to minutes.  So every time the benchmark reports is given at a
    reference speed, where the gauge kernel takes ``REFERENCE_S``: it is
    multiplied by ``scale`` over the gauge readings taken around it.  The
    kernel is the benchmark's own pure-Python graph code, so a change to
    colorcert cannot move it.  It runs between cycles and set-ups,
    outside the timed region, with the garbage collector off.
    """

    REFERENCE_S = 0.001  # the kernel's time at the reference speed
    REPEATS = 3

    def __init__(self):
        self.samples = []

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.REPEATS):
                start = time.perf_counter()
                _gauge_kernel()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self, first=0, last=None):
        """Reference time over the median of ``samples[first:last]``."""
        return self.REFERENCE_S / statistics.median(self.samples[first:last])


def run_instance(inst, tracer, limit, ident):
    """Time one instance to its verified verdict under the time limit."""
    tracer.begin_instance(ident)
    error = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        verdict, certs_ok = inst.run(tracer)
    except TimeLimit:
        error = "timeout"
    except Exception as exc:  # an operation that raised is undecided
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if error is not None:
        return Sample(inst.family, limit, False, error=error), elapsed
    wrong, defect = inst.judge(verdict) if certs_ok else (True, None)
    return Sample(inst.family, elapsed, True, wrong=wrong, defect=defect), elapsed


@dataclass
class LoopResult:
    samples: list
    wall: float  # sum of the sample times: the timed pass at the reference speed
    spent: float  # the same, as measured
    untraced: float  # as measured, the untraced pass of a traced run
    tracer: object


def run_loop(cycles, period, seconds, limit, traced, deadline, gauge):
    """Run whole periods of cycles until ``seconds`` of measured time have passed.

    The gauge is read before the first cycle and after each one; a
    cycle's times are scaled by the readings on either side of it, so a
    change of host speed inside a run is followed cycle by cycle.  In a
    traced run every cycle runs twice, untraced and traced, so the two
    measured times compare the same instances; samples and ``wall``
    come from the traced pass.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = LoopResult([], 0.0, 0.0, 0.0, Tracer() if traced else NullTracer())
    null = NullTracer()
    ident = 0

    def running(cycle):
        # past the deadline a run stops even inside a cycle, so that it
        # always ends in time however slow the program under test gets
        for inst in cycle:
            if time.monotonic() >= deadline:
                return
            yield inst

    def untraced_pass(cycle):
        return sum(run_instance(inst, null, limit, -1)[1] for inst in running(cycle))

    gauge.sample()
    try:
        k = 0
        # a traced run spends its time on both passes, so it lasts as long
        # as an untraced one
        while ((k % period or result.spent + result.untraced < seconds)
               and time.monotonic() < deadline):
            cycle = cycles[k % len(cycles)]
            before = len(gauge.samples) - gauge.REPEATS
            # alternate which pass goes first, so warm-up favours neither
            if traced and k % 2 == 0:
                result.untraced += untraced_pass(cycle)
            timed = []
            for inst in running(cycle):
                timed.append(run_instance(inst, result.tracer, limit, ident))
                ident += 1
            if traced and k % 2 == 1:
                result.untraced += untraced_pass(cycle)
            gauge.sample()
            scale = gauge.scale(before)
            for sample, elapsed in timed:
                # an undecided instance counts at the limit, whatever the speed
                if sample.decided:
                    sample.seconds *= scale
                result.samples.append(sample)
                result.spent += elapsed
                result.wall += sample.seconds
            k += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result


def run_probe(instances, limit):
    """Run each instance once, untraced, under the limit; return the samples."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return [run_instance(inst, NullTracer(), limit, -1)[0] for inst in instances]
    finally:
        signal.signal(signal.SIGALRM, previous)


def percentile(values, q):
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


@dataclass
class Summary:
    attempted: int
    decided: int
    wrong: int
    unexplained_wrong: int
    defects: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    beyond_p90: int = 0
    slowest_decided_ms: float = 0.0
    throughput: float = 0.0


def summarize(samples, wall):
    times = [s.seconds for s in samples]
    p90 = percentile(times, 0.9)
    defects = {}
    errors = {}
    for s in samples:
        if s.defect:
            defects[s.defect] = defects.get(s.defect, 0) + 1
        if s.error:
            key = f"{s.family}: {s.error.splitlines()[0][:80]}"
            errors[key] = errors.get(key, 0) + 1
    decided = sum(s.decided for s in samples)
    wrong = sum(s.wrong for s in samples)
    return Summary(
        attempted=len(samples),
        decided=decided,
        wrong=wrong,
        unexplained_wrong=sum(s.wrong and not s.defect for s in samples),
        defects=defects,
        errors=errors,
        p50_ms=1000.0 * statistics.median(times),
        p90_ms=1000.0 * p90,
        beyond_p90=sum(t > p90 for t in times),
        slowest_decided_ms=1000.0 * max((s.seconds for s in samples if s.decided), default=0.0),
        throughput=decided / wall if wall > 0 else 0.0,
    )
