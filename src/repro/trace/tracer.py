"""Hierarchical, thread-safe span tracing for the execution stack.

The paper's evaluation is an exercise in *attribution*: Figure 9 and the
Q2.1 task breakdown only mean something because wall-clock can be pinned
to hash-table build, fact scan, probe, shuffle, and sort. Flat counters
cannot localize a regression to a phase, so the runtime grows a span
tree mirroring the execution hierarchy::

    query                       (engine driver)
      plan                      (star-join planning)
      schedule                  (locality-aware task placement)
      job                       (one MapReduce job)
        map_phase
          map_task              (one attempt; retries get fresh spans)
            scan                (storage reader, per split)
            build               (hash tables from the node-local cache)
            join_thread         (MTMapRunner worker)
              probe             (one B-CIF block batch)
        reduce_phase
          shuffle
          reduce_task
            sort                (merge_and_group)
            aggregate           (reducer loop)
      sort                      (driver-side final ORDER BY)

Design constraints, in order:

* **Zero cost when off.** ``tracer_for(conf)`` returns the module
  singleton :data:`NULL_TRACER` unless a real tracer is attached; its
  ``span()`` hands back one shared no-op span, so a disabled trace point
  is two attribute lookups and no allocation — legal under the hotpath
  lint without any ``allow-alloc`` escape.
* **Thread safety by construction.** Span parentage rides a
  ``threading.local`` stack per thread (the race lint's thread-local
  allowance); the only shared state — the id counter and the span list —
  is touched under ``self._lock``. Cross-thread children (a
  ``join_thread`` span whose parent was opened by the main thread) pass
  ``parent=`` explicitly.
* **Closed exactly once.** Finishing a span twice raises
  :class:`TraceError` instead of silently rewriting history; the
  property tests lean on this.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

# Span categories: the taxonomy axis orthogonal to the span name.
CAT_JOB = "job"        # a whole query or MapReduce job
CAT_STAGE = "stage"    # one Hive stage (mapjoin/repartition/groupby)
CAT_STEP = "step"      # structural grouping (map_phase, schedule, ...)
CAT_TASK = "task"      # one task attempt
CAT_THREAD = "thread"  # one MTMapRunner join thread
CAT_PHASE = "phase"    # a measured leaf: scan/build/probe/shuffle/sort/...
CAT_SESSION = "session"  # one Session.execute() call (repro.serve)
CAT_CACHE = "cache"    # session hash-table cache bookkeeping
CAT_FRONTEND = "frontend"  # one scale-out Frontend execute
CAT_ROUTE = "route"    # one warm-shard routing decision
CAT_WORKER = "worker"  # one worker-process request/reply

STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_RETRIED = "retried"  # a successful attempt that followed a failure

#: Phase-span names whose totals feed ``ExecutionStats.phases``.
PHASE_NAMES = ("scan", "build", "probe", "shuffle", "sort", "aggregate")


class TraceError(RuntimeError):
    """An instrumentation bug: double finish, malformed parentage."""


class Span:
    """One timed interval. Context manager; ``set()`` attaches attributes."""

    __slots__ = ("span_id", "parent_id", "name", "category", "thread",
                 "start_s", "end_s", "attrs", "status", "_tracer")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, name: str, category: str,
                 thread: str) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.thread = thread
        self.start_s: float = 0.0
        self.end_s: float | None = None
        self.attrs: dict[str, Any] = {}
        self.status = STATUS_OPEN
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute. Call only from the owning thread."""
        self.attrs[key] = value

    def finish(self, status: str | None = None) -> None:
        self._tracer._finish(self, status)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(STATUS_FAILED if exc_type is not None else None)
        return False

    def __repr__(self) -> str:
        return (f"Span({self.span_id}, {self.name!r}, cat={self.category!r}, "
                f"status={self.status!r}, dur={self.duration_s:.6f})")


class Tracer:
    """Thread-safe span factory and registry.

    Every started span is recorded immediately (under the lock), so an
    exception that unwinds past an open span still leaves evidence: the
    span shows up with ``status == "open"`` and the tree's
    :meth:`SpanTree.violations` flags it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------- #

    def span(self, name: str, category: str = CAT_STEP,
             parent: Span | None = None) -> Span:
        """Start a span (alias of :meth:`start`; use as ``with``)."""
        return self.start(name, category, parent)

    def start(self, name: str, category: str = CAT_STEP,
              parent: Span | None = None) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if parent is not None:
            parent_id = parent.span_id
        elif stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, span_id, parent_id, name, category,
                    threading.current_thread().name)
        span.start_s = self._clock()
        with self._lock:
            self._spans.append(span)
        stack.append(span)
        return span

    def _finish(self, span: Span, status: str | None) -> None:
        if span.end_s is not None:
            raise TraceError(
                f"span {span.name!r} (id {span.span_id}) finished twice")
        span.end_s = self._clock()
        if status is not None:
            span.status = status
        elif span.status == STATUS_OPEN:
            span.status = STATUS_OK
        stack = getattr(self._local, "stack", None)
        if stack and span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()

    # -- introspection -------------------------------------------------- #

    def num_spans(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def open_spans(self) -> list[Span]:
        with self._lock:
            return [s for s in self._spans if s.end_s is None]

    def tree(self) -> "SpanTree":
        return SpanTree(self.spans())


class NullSpan:
    """The shared no-op span: every method is a constant-cost no-op."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        return None

    def finish(self, status: str | None = None) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()


class NullTracer:
    """Flag-off tracer: hands out the one shared :class:`NullSpan`.

    Never records anything, so a trace point on the hot path costs two
    method calls and zero allocations.
    """

    __slots__ = ()

    def span(self, name: str, category: str = CAT_STEP,
             parent: Any = None) -> NullSpan:
        return NULL_SPAN

    def start(self, name: str, category: str = CAT_STEP,
              parent: Any = None) -> NullSpan:
        return NULL_SPAN

    def num_spans(self) -> int:
        return 0

    def spans(self) -> list[Span]:
        return []

    def open_spans(self) -> list[Span]:
        return []

    def tree(self) -> "SpanTree":
        return SpanTree([])


NULL_TRACER = NullTracer()


def tracer_for(conf: Any) -> Tracer | NullTracer:
    """The tracer attached to a job configuration, or the no-op one.

    Drivers opt in by setting the ``clydesdale.trace`` flag and
    attaching ``conf.tracer = Tracer()``; everything downstream asks
    this accessor and never branches on the flag again.
    """
    tracer = getattr(conf, "tracer", None)
    if tracer is None:
        return NULL_TRACER
    return tracer


class SpanTree:
    """A finished trace: flat span list plus tree accessors and checks."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: list[Span] = list(spans)
        self._by_id = {s.span_id: s for s in self.spans}

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        return [s for s in self.spans
                if s.parent_id is None or s.parent_id not in self._by_id]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def find_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def phase_totals(self) -> dict[str, float]:
        """Wall-clock seconds summed per phase-span name.

        Concurrent join threads each contribute their own wall time, so
        ``probe`` totals are thread-seconds, not elapsed seconds — the
        same convention as Hadoop's task counters.
        """
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.category != CAT_PHASE:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    def violations(self) -> list[str]:
        """Well-formedness defects; an empty list means the tree is sound.

        Checks: every span finished (exactly-once is enforced at finish
        time by :class:`TraceError`), non-negative intervals, parents
        present, child intervals nested inside their parent's, and — for
        children that ran on the *same thread* as their parent, which
        are sequential by construction — durations summing to at most
        the parent's.
        """
        problems: list[str] = []
        for span in self.spans:
            if span.end_s is None or span.status == STATUS_OPEN:
                problems.append(f"span {span.span_id} {span.name!r} "
                                f"was never finished")
                continue
            if span.end_s < span.start_s:
                problems.append(f"span {span.span_id} {span.name!r} "
                                f"ends before it starts")
            if span.parent_id is None:
                continue
            parent = self._by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"span {span.span_id} {span.name!r} has "
                                f"unknown parent {span.parent_id}")
                continue
            if parent.end_s is None:
                continue  # already reported on the parent
            if span.start_s < parent.start_s or span.end_s > parent.end_s:
                problems.append(
                    f"span {span.span_id} {span.name!r} "
                    f"[{span.start_s:.6f}, {span.end_s}] escapes parent "
                    f"{parent.span_id} {parent.name!r} "
                    f"[{parent.start_s:.6f}, {parent.end_s}]")
        for parent in self.spans:
            if parent.end_s is None:
                continue
            sequential = sum(
                child.duration_s for child in self.children(parent)
                if child.thread == parent.thread
                and child.end_s is not None)
            if sequential > parent.duration_s + 1e-9:
                problems.append(
                    f"same-thread children of span {parent.span_id} "
                    f"{parent.name!r} sum to {sequential:.6f}s > parent "
                    f"duration {parent.duration_s:.6f}s")
        return problems
