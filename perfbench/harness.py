"""Measurement machinery shared by every workload: the step ledger, the call
context that times and traces the benchmark's calls into the package, the
closed-loop driver and the statistics reported at the end.

Nothing here imports the package under test; workloads pass the package's
functions in, so this module can be read without knowing the package.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def make_ledger_class(work_budget_cls):
    """A WorkBudget subclass that tallies charge(steps, what) per label.

    The limit is fixed here (far above any workload's need) so that results
    never depend on the REPET2D_BUDGET environment variable.
    """

    class Ledger(work_budget_cls):
        def __init__(self) -> None:
            super().__init__(limit=10**15)
            self.tally: dict[str, int] = {}

        def charge(self, steps: int, what: str = "window scan") -> None:
            label = what.replace(" ", "_")
            self.tally[label] = self.tally.get(label, 0) + steps
            super().charge(steps, what)

    return Ledger


@functools.cache
def takes_budget(fn: Callable) -> bool:
    """Whether ``fn`` accepts a ``budget`` argument, looked up once per function."""
    return "budget" in inspect.signature(fn).parameters


@dataclass
class Span:
    span_id: int
    parent: int | None
    job: str
    name: str
    start: float
    end: float
    steps: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def as_json(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "job": self.job,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "steps": self.steps,
            **({"extra": self.extra} if self.extra else {}),
        }


class Ctx:
    """What a job sees: ``call`` runs one public function of the package.

    Every call that accepts a ``budget`` gets a fresh ledger, so its steps
    are attributed to that call. With a tracer, each call also records a
    span under the job's root span; ``extra`` derives ratio bases (cells,
    hops, ...) from the call's arguments and result after the clock stops.
    """

    def __init__(self, ledger_cls, tracer: "Tracer | None", extra: Callable | None):
        self.ledger_cls = ledger_cls
        self.tracer = tracer
        self.extra = extra
        self.steps: dict[str, int] = {}

    def call(self, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        ledger = None
        if takes_budget(fn):
            ledger = self.ledger_cls()
            kw["budget"] = ledger
        start = time.perf_counter()
        out = fn(*args, **kw)
        end = time.perf_counter()
        tally = ledger.tally if ledger is not None else {}
        for label, n in tally.items():
            self.steps[label] = self.steps.get(label, 0) + n
        if self.tracer is not None:
            extra = self.extra(name, args, out) if self.extra else {}
            self.tracer.child(name, start, end, dict(tally), extra)
        return out

    def span(self, name: str, start: float, end: float, extra: dict | None = None) -> None:
        """Record an interval measured by the job itself (a child process)."""
        if self.tracer is not None:
            self.tracer.child(name, start, end, {}, extra or {})


class Tracer:
    """Keeps spans in memory; they are written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._root: Span | None = None

    def open_job(self, job_id: str, name: str, start: float) -> None:
        self._root = Span(len(self.spans), None, job_id, "job." + name, start, start)
        self.spans.append(self._root)

    def close_job(self, end: float) -> None:
        assert self._root is not None
        self._root.end = end
        self._root = None

    def child(self, name, start, end, steps, extra) -> None:
        root = self._root
        self.spans.append(
            Span(len(self.spans), root.span_id, root.job, name, start, end, steps, extra)
        )


@dataclass
class Job:
    """One closed-loop request: ``run(ctx)`` makes the package calls and
    returns what the correctness check and the digest look at."""

    name: str
    run: Callable[[Ctx], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]
    fixed: bool  # inputs do not depend on the seed
    props: dict
    baseline: str | None = None


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# On a shared host the same code runs up to 1.6 times slower for seconds to
# minutes at a time, while other tenants load the physical cores; a run's
# wall times then say more about the neighbours than about the package. So
# the benchmark times a fixed pure-Python kernel, which touches nothing of
# the package, between every two jobs, and scales each job's wall time by
# CALIBRATION_REFERENCE_S over the mean of the readings taken within one job
# length of it (at least the readings right before and right after it). A
# long job spans several fast and slow spells, so it is scaled by the speed
# of a span as long; a short one by the speed at its ends. The scaled time
# is the job's time on a host of reference speed: one where the kernel takes
# CALIBRATION_REFERENCE_S, its usual time on the 2-core Xeon VM the
# benchmark was tuned on. Unscaled wall times are kept and printed as well.
# Jobs that run in child processes are scaled otherwise: each CPU has spells
# of its own and a child may land on either, and the in-process kernel did
# not follow them (in trials, scaling child jobs by it made their figures
# noisier). Their kernel starts a bare interpreter (``python -I -S -c pass``)
# in a child process, and every job of the run is scaled by the mean of all
# the run's readings, CHILD_REFERENCE_S being that start's usual time.
CALIBRATION_REFERENCE_S = 4.0e-4
CHILD_REFERENCE_S = 1.6e-2


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    table: dict[int, int] = {}
    start = time.perf_counter()
    for i in range(2000):
        key = i & 63
        table[key] = table.get(key, 0) + (i * 7) % 13
    return time.perf_counter() - start


def calibrate_child() -> float:
    """Seconds a bare interpreter takes to start and exit right now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


class Readings:
    """The calibration readings of one run and when each was taken."""

    def __init__(self, child_processes: bool = False) -> None:
        self.child_processes = child_processes
        self.kernel = calibrate_child if child_processes else calibrate
        self.reference = CHILD_REFERENCE_S if child_processes else CALIBRATION_REFERENCE_S
        for _ in range(3):  # the kernel's first, cold runs
            self.kernel()
        self.times: list[float] = []
        self.values: list[float] = []
        self.take()

    def take(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(self.kernel())

    def scaled(self, start: float, end: float) -> float:
        """The wall time ``end - start`` at reference host speed."""
        wall = end - start
        if self.child_processes:
            window = self.values
        else:
            lo = min(bisect.bisect_left(self.times, start - wall),
                     bisect.bisect_left(self.times, start) - 1)
            hi = max(bisect.bisect_right(self.times, end + wall),
                     bisect.bisect_left(self.times, end) + 1)
            window = self.values[lo:hi]
        return wall * self.reference * len(window) / sum(window)


@dataclass
class JobRecord:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # start, end
    latencies: list[float] = field(default_factory=list)  # at reference speed
    first_output: Any = None
    digest: str | None = None
    steps: dict[str, int] | None = None
    errors: list[str] = field(default_factory=list)
    attempts: int = 0


def _execute(job: Job, ledger_cls, tracer, extra, records: dict[str, JobRecord],
             readings: Readings) -> None:
    """Run one job, then take a calibration reading."""
    rec = records.setdefault(job.name, JobRecord())
    rec.attempts += 1
    ctx = Ctx(ledger_cls, tracer, extra)
    start = time.perf_counter()
    if tracer is not None:
        tracer.open_job(f"{job.name}#{rec.attempts}", job.name, start)
    try:
        out = job.run(ctx)
        error = None
    except Exception as exc:  # a job that raises is a failed job
        out = None
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.close_job(end)
    readings.take()
    if error is not None:
        rec.errors.append(error)
        return
    rec.intervals.append((start, end))
    digest = job.digest(out)
    if rec.digest is None:
        rec.first_output, rec.digest, rec.steps = out, digest, ctx.steps
        return
    if digest != rec.digest:
        rec.errors.append(f"output changed on repeat {rec.attempts}")
    if ctx.steps != rec.steps:
        rec.errors.append(f"step ledger changed on repeat {rec.attempts}")


def run_loop(
    jobs: list[Job],
    seconds: float,
    ledger_cls,
    records: dict[str, JobRecord],
    tracer: Tracer | None = None,
    extra: Callable | None = None,
    plain_records: dict[str, JobRecord] | None = None,
    child_processes: bool = False,
) -> None:
    """Closed loop with one client: the next job starts when the previous one
    returns. Cycles through the job list until ``seconds`` have passed and
    every job ran at least once. Digests, step ledgers and the calibration
    readings around each job stay outside the timed call.

    With a tracer and ``plain_records``, every job runs twice in a row, once
    untraced and once traced (the order alternating from pass to pass), so
    that the tracing overhead is measured on paired runs. Every job's time
    is also scaled to reference host speed; ``child_processes`` says that
    the jobs run in child processes (see CALIBRATION_REFERENCE_S)."""
    readings = Readings(child_processes)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        if tracer is None:
            _execute(job, ledger_cls, None, None, records, readings)
        elif (i // len(jobs)) % 2 == 0:
            _execute(job, ledger_cls, None, None, plain_records, readings)
            _execute(job, ledger_cls, tracer, extra, records, readings)
        else:
            _execute(job, ledger_cls, tracer, extra, records, readings)
            _execute(job, ledger_cls, None, None, plain_records, readings)
        i += 1
    for recs in (records, plain_records or {}):
        for rec in recs.values():
            rec.latencies = [readings.scaled(a, b) for a, b in rec.intervals]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping a fifth of them at each end.

    On a shared host the same job runs in fast and slow spells. A median of
    its repeats jumps from one spell's speed to the other's when the spells
    trade places as the larger half; a mean moves in proportion to the time
    spent in each. The trim drops the rare stall."""
    s = sorted(values)
    k = len(s) // 5
    kept = s[k:len(s) - k]
    return sum(kept) / len(kept)


def job_latencies(latencies: dict[str, list[float]]) -> list[float]:
    """Each job's latency in a run: the trimmed mean of its repeats. Every
    job of the mix then weighs the same, however often it ran."""
    return [trimmed_mean(v) for v in latencies.values() if v]


def pass_rate(latencies: dict[str, list[float]]) -> float:
    """Jobs per second of one pass over the mix: the number of jobs divided
    by the sum of their latencies. The loop is closed and never idle, so this
    is its completion rate, without the bias of a partly finished last
    pass."""
    lat = job_latencies(latencies)
    return len(lat) / sum(lat)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics. Unlike a single order statistic
    it does not jump when two neighbouring jobs swap places."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = 200 * n
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    for k in range(grid):
        t = (k + 0.5) / grid
        cdf.append(cdf[-1] + math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)))
    total = cdf[-1]
    return sum((cdf[200 * (i + 1)] - cdf[200 * i]) / total * x for i, x in enumerate(xs))


TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 60.0, 55.0, 50.0)


def tail(latencies: dict[str, list[float]], preferred: float) -> tuple[float, float, int, int]:
    """Latency at ``preferred`` percent of the job latencies, or at the next
    lower rung of the ladder while fewer than ten samples (executions) lie
    beyond it. Returns (latency, percentile, samples, samples beyond)."""
    runs = [(trimmed_mean(v), len(v)) for v in latencies.values() if v]
    lat = [x for x, _ in runs]
    samples = sum(n for _, n in runs)
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        value = quantile(lat, pct / 100)
        beyond = sum(n for x, n in runs if x > value)
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return value, pct, samples, beyond
    raise AssertionError("unreachable")
