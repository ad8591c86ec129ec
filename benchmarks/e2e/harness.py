"""Set-up, timed windows and resource accounting for the e2e benchmark.

The program under test is reached only through ``repro.api.connect`` and
the objects it returns.  Two load shapes:

* **closed loop** (``ssb_warm``, ``ssb_cold``, ``drilldown``): one
  client sends its next request when the previous one returned;
* **open loop** (``serve_open``): requests fall due on a fixed schedule
  whatever the system does, two sender threads (``nproc`` is 2) take
  them in order, and every request is timed from the instant it was
  *due*, so a stall is charged to the requests that waited behind it.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.api import connect
from repro.common.errors import AdmissionError
from repro.ssb.datagen import SSBData, SSBGenerator
from repro.ssb.queries import ssb_queries

from streams import Request

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: The SSB tables are always generated from this seed; ``--seed`` seeds
#: the request stream only.  At this commit, which queries leave the
#: vectorized probe path depends on the generated dimension keys (Q3.x
#: warm is 7-29 ms under data seed 42 and 52-58 ms under 100), so a
#: varying data seed would change the work itself, not sample it.
DATA_SEED = 42
#: Provenance sources that mean "served from a cache or store".
REUSE_SOURCES = ("result_cache", "agg_exact", "agg_rollup")
#: ``serve_open``: p90 from due time must stay under this.
LATENCY_LIMIT_MS = 100.0
SENDERS = 2


@dataclass(frozen=True)
class Profile:
    """How much work one run does.  ``full`` is what ``BENCHMARK.json``
    measures; ``quick`` is the smoke size the test-suite uses."""

    inprocess_sf: float
    serve_sf: float
    setup_reps: int
    #: Open-loop arrival rates r1 < r2 < r3 < overload (requests/s),
    #: calibrated once on the reference box: the baseline meets the
    #: latency limit at r2 and misses it at overload.
    rates: tuple[float, float, float, float]
    #: Share of the window each step gets: r1, r2, r3, overload, reload.
    #: r2 is where ``query_p50_ms``/``query_p90_ms`` are read, so it
    #: gets the most.
    step_shares: tuple[float, float, float, float, float]
    replay_units: int
    #: Of the requests served by reuse, every n-th keeps its rows for
    #: the oracle; requests that had to execute all do.
    keep_every: int


FULL = Profile(inprocess_sf=0.02, serve_sf=0.01, setup_reps=3,
               rates=(15.0, 30.0, 60.0, 300.0),
               step_shares=(0.08, 0.50, 0.10, 0.22, 0.10),
               replay_units=3, keep_every=10)
QUICK = Profile(inprocess_sf=0.002, serve_sf=0.002, setup_reps=1,
                rates=(15.0, 30.0, 60.0, 300.0),
                step_shares=(0.2, 0.2, 0.2, 0.2, 0.2),
                replay_units=2, keep_every=1)


# --------------------------------------------------------------------- #
# Small statistics.
# --------------------------------------------------------------------- #


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 if empty."""
    values = list(values)
    return float(np.percentile(values, q * 100.0)) if values else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- #
# Resource accounting over the workload's process tree.
# --------------------------------------------------------------------- #


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu_s(worker_pids: Iterable[int] = ()) -> float:
    """CPU seconds of this process (all threads), its reaped children,
    and the live worker processes named."""
    times = os.times()
    return (time.process_time() + times.children_user
            + times.children_system
            + sum(_proc_cpu_s(pid) for pid in worker_pids))


def tree_peak_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus each live worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in worker_pids)


_PROBE_TABLE = {key: (key, key * 3) for key in range(0, 60_000, 3)}
_PROBE_ARRAY = np.arange(200_000, dtype=np.int64)
_PROBE_SCRATCH = np.empty_like(_PROBE_ARRAY)


def spin_ms() -> float:
    """A fixed piece of work shaped like the program's hot loops — dict
    probes and tuple indexing in bytecode, a numpy pass over a buffer —
    timed to tell a slow host from a slow program.  It is the
    benchmark's own, so no change to the program can move it, and it
    builds no containers, so the collector never runs inside it."""
    start = time.perf_counter()
    total = 0
    get = _PROBE_TABLE.get
    for key in range(0, 60_000, 2):
        entry = get(key)
        if entry is not None:
            total += entry[1]
    np.multiply(_PROBE_ARRAY, 3, out=_PROBE_SCRATCH)
    np.bitwise_and(_PROBE_SCRATCH, 7, out=_PROBE_SCRATCH)
    total += int(_PROBE_SCRATCH.sum())
    return (time.perf_counter() - start) * 1e3


# --------------------------------------------------------------------- #
# Set-up.
# --------------------------------------------------------------------- #


@dataclass
class Setup:
    """A connected system ready for its timed window."""

    data: SSBData
    session: Any = None               # in-process Session
    frontend: Any = None              # serve_open: the Frontend
    senders: list[Any] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def worker_pids(self) -> list[int]:
        if self.frontend is None:
            return []
        return [info["pid"] for info in self.frontend.worker_stats()
                if info.get("alive")]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.frontend is not None:
            self.frontend.close()


def warm_up(session: Any) -> float:
    """One pass over the 13 SSB queries; returns the sum of their
    simulated seconds (what the paper's cost model sees)."""
    return sum(session.execute(query).simulated_seconds
               for query in ssb_queries().values())


def setup_inprocess(scale_factor: float,
                    aggstore: bool | None) -> Setup:
    """datagen + load + ``connect`` + one warm-up pass, each timed."""
    start = time.perf_counter()
    data = SSBGenerator(scale_factor=scale_factor,
                        seed=DATA_SEED).generate()
    generated = time.perf_counter()
    session = connect("clydesdale", data=data, aggstore=aggstore)
    connected = time.perf_counter()
    simulated = warm_up(session)
    done = time.perf_counter()
    return Setup(data=data, session=session, timings={
        "sim_s": simulated,
        "generate_s": generated - start,
        "connect_s": connected - generated,
        "warmup_s": done - connected, "setup_s": done - start})


def setup_frontend(scale_factor: float) -> Setup:
    """datagen + worker spawn + one warm-up pass through the frontend."""
    start = time.perf_counter()
    data = SSBGenerator(scale_factor=scale_factor,
                        seed=DATA_SEED).generate()
    generated = time.perf_counter()
    first = connect("clydesdale", data=data, workers=SENDERS,
                    name="sender0")
    frontend = first.frontend
    senders = [first] + [frontend.session(f"sender{i}")
                         for i in range(1, SENDERS)]
    # connect() returns once the workers are forked; their first reply
    # comes when each has loaded the data and built its session.
    frontend.worker_stats()
    connected = time.perf_counter()
    simulated = warm_up(first)
    done = time.perf_counter()
    return Setup(data=data, frontend=frontend, senders=senders, timings={
        "sim_s": simulated,
        "generate_s": generated - start,
        "connect_s": connected - generated,
        "warmup_s": done - connected, "setup_s": done - start})


def repeated_setup(build: Callable[[], Setup], reps: int
                   ) -> tuple[Setup, list[float]]:
    """Set up ``reps`` times, keep the last; returns every set-up time
    so the run can report their median."""
    times: list[float] = []
    current = None
    for _ in range(reps):
        if current is not None:
            current.close()
        current = build()
        times.append(current.timings["setup_s"])
    return current, times


# --------------------------------------------------------------------- #
# Samples.
# --------------------------------------------------------------------- #


@dataclass
class Sample:
    """One request as the harness saw it."""

    request: Request
    latency_ms: float
    cpu_ms: float = 0.0               # closed loop: process CPU meanwhile
    unit: int = 0                     # closed loop: ordinal of its unit
    source: str = "error"             # actual provenance
    rows: list[tuple] | None = None   # kept for sampled verification
    error: str | None = None
    step: str = ""
    due_s: float = 0.0
    late_ms: float = 0.0              # open loop: sent - due
    worker: int | None = None
    generation: int | None = None
    done_s: float = 0.0
    ht_builds: int = 0
    warm_route: bool | None = None

    @property
    def reused(self) -> bool:
        return self.source in REUSE_SOURCES


def _frontend_source(summary: dict) -> str:
    """Actual provenance of a frontend answer: its own caches, or what
    the worker's session reports."""
    if summary["source"] != "worker":
        return summary["source"]
    provenance = summary.get("provenance") or {}
    return provenance.get("source", "executed")


def answer_source(session: Any) -> str:
    """Actual provenance of ``session``'s most recent answer, for an
    in-process ``Session`` or a ``FrontendSession``."""
    if hasattr(session, "last_summary"):
        return _frontend_source(session.last_summary)
    provenance = session.last_provenance
    return provenance.source if provenance is not None else "executed"


# --------------------------------------------------------------------- #
# Closed loop.
# --------------------------------------------------------------------- #


def run_closed(session: Any, units: Iterable[list[Request]], *,
               seconds: float | None = None,
               before_request: Callable[[], None] | None = None,
               after_unit: Callable[[int], None] | None = None,
               keep_rows: Callable[[Request], bool] = lambda r: True,
               trace: bool = False,
               on_answer: Callable[[Sample, Any], None] | None = None,
               recorder: Any = None,
               ) -> tuple[list[Sample], float]:
    """One client, next request when the previous returned.  Runs whole
    units until ``seconds`` have passed (or ``units`` runs out); returns
    the samples and the window's wall time.  Each request is timed on
    the wall clock and on the process's CPU clock (all threads), so what
    the generator and this loop cost between requests is in neither.
    ``recorder`` (a ``layers.SpanRecorder``) gets one ``request`` span
    per request."""
    samples: list[Sample] = []
    start = time.perf_counter()
    for count, unit in enumerate(units):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for request in unit:
            if before_request is not None:
                before_request()
            span = (recorder.span("request",
                                  request_id=f"{count}:{len(samples)}",
                                  cls=request.cls)
                    if recorder is not None else nullcontext())
            with span as recorded:
                cpu_before = time.process_time()
                sent = time.perf_counter()
                try:
                    result = session.execute(request.query, trace=trace)
                except Exception as exc:  # noqa: BLE001 - counted failed
                    samples.append(Sample(
                        request, (time.perf_counter() - sent) * 1e3,
                        unit=count, error=f"{type(exc).__name__}: {exc}"))
                    continue
                latency = (time.perf_counter() - sent) * 1e3
                cpu = (time.process_time() - cpu_before) * 1e3
            sample = Sample(
                request, latency, cpu, count, answer_source(session),
                rows=result.rows if keep_rows(request) else None)
            samples.append(sample)
            if recorded is not None:
                recorded.args["source"] = sample.source
            if on_answer is not None:
                on_answer(sample, session)
        if after_unit is not None:
            after_unit(count)
    return samples, time.perf_counter() - start


# --------------------------------------------------------------------- #
# Open loop.
# --------------------------------------------------------------------- #


@dataclass
class StepResult:
    name: str
    rate: float
    seconds: float
    samples: list[Sample]
    due: int                          # requests that fell due in the step
    wall_s: float
    origin_s: float = 0.0             # perf_counter when the step began

    def latencies(self) -> list[float]:
        return [s.latency_ms for s in self.samples]

    def p90_ms(self) -> float:
        return percentile(self.latencies(), 0.90)

    def lateness_grew(self) -> bool:
        """Did send lateness keep growing over the step's last quarter?
        (Backlog, as opposed to a burst the system caught up with.)"""
        ordered = sorted(self.samples, key=lambda s: s.due_s)
        tail = ordered[-max(4, len(ordered) // 4):]
        half = len(tail) // 2
        if half < 2:
            return False
        early = median(s.late_ms for s in tail[:half])
        late = median(s.late_ms for s in tail[half:])
        return late > early + 1.0 and late > 5.0

    def meets_limit(self) -> bool:
        """p90 within the limit, nothing failed, no growing backlog, and
        nothing left unsent when the step ended that had then been due
        for longer than the limit."""
        if not self.samples or any(s.error for s in self.samples):
            return False
        # Requests are sent in order, so the first one left unsent was
        # due at len(samples) / rate.
        if (len(self.samples) < self.due and self.seconds
                - len(self.samples) / self.rate > LATENCY_LIMIT_MS / 1e3):
            return False
        return (self.p90_ms() <= LATENCY_LIMIT_MS
                and not self.lateness_grew())

    def achieved_qps(self) -> float:
        return len(self.samples) / self.wall_s if self.wall_s else 0.0


def run_open_step(name: str, senders: list[Any],
                  requests: Iterator[Request], rate: float,
                  seconds: float, *,
                  keep_rows: Callable[[Request], bool] = lambda r: True,
                  trace: bool = False,
                  on_answer: Callable[[Sample, Any], None] | None = None,
                  ) -> StepResult:
    """One fixed-rate step: request ``i`` is due at ``i / rate``; sender
    threads take due requests in order and block on each reply.  The
    step ends at ``seconds``; requests still unsent then are dropped
    (``due - len(samples)`` is the backlog left behind)."""
    due_total = max(1, int(rate * seconds))
    schedule = [next(requests) for _ in range(due_total)]
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter()

    def sender(session: Any) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= due_total:
                return
            due = index / rate
            now = time.perf_counter() - origin
            if now >= seconds:
                return
            if due > now:
                time.sleep(due - now)
            request = schedule[index]
            sent = time.perf_counter() - origin
            sample = Sample(request, 0.0, step=name, due_s=due,
                            late_ms=(sent - due) * 1e3)
            try:
                result = session.execute(request.query, trace=trace)
            except AdmissionError as exc:
                sample.error = f"refused: {exc.reason}"
            except Exception as exc:  # noqa: BLE001 - counted as failed
                sample.error = f"{type(exc).__name__}: {exc}"
            else:
                summary = session.last_summary
                sample.source = _frontend_source(summary)
                sample.worker = summary.get("worker")
                sample.generation = summary.get("generation")
                sample.ht_builds = summary.get("ht_builds") or 0
                sample.warm_route = summary.get("warm_route")
                if keep_rows(request):
                    sample.rows = result.rows
            sample.done_s = time.perf_counter() - origin
            sample.latency_ms = (sample.done_s - due) * 1e3
            with lock:
                samples.append(sample)
            if on_answer is not None and sample.error is None:
                on_answer(sample, session)

    threads = [threading.Thread(target=sender, args=(session,),
                                name=f"sender-{i}")
               for i, session in enumerate(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - origin
    return StepResult(name, rate, seconds, samples, due_total, wall,
                      origin)
