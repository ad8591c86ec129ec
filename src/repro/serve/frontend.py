"""Scale-out serving: a multi-worker frontend with warm-shard routing.

A :class:`Frontend` owns a pool of forked worker *processes*
(:mod:`repro.serve.worker`), each with its own engine and hash-table
cache shard, and routes every query by its canonical shape
(:attr:`repro.core.canonical.CanonicalQuery.shape`) so repeat shapes
land on the worker whose shard is already warm — the repeat performs
zero hash builds.  In front of the workers sit a
:class:`~repro.serve.cache.ResultCache` (a byte-identical repeat of a
whole query never reaches a worker) and an
:class:`~repro.serve.aggstore.AggStore` (neither does a subsumed one).

The frontend's ``generation`` is the only clock: ``reload_catalog``
bumps it, stamps both frontend stores with it and broadcasts it to the
workers as a fire-and-forget message, so invalidation never barriers
the pool — every store applies the stamp independently and refuses
work computed under a superseded one (see
:class:`~repro.serve.store.GenerationalStore`).

Admission is the serving layer's only one: at most ``workers x
max_concurrent + queue_depth`` queries in flight frontend-wide and
``session_quota`` per attached session; past either bound ``execute``
raises :class:`~repro.common.errors.AdmissionError`.  A worker that dies
mid-query (detected via its process sentinel, surfacing as
:class:`~repro.common.errors.WorkerCrashError`) is taken out of
rotation, its shapes re-pin to healthy workers, the query retries, and
— with ``respawn`` on — a fresh worker forks over the current catalog
and generation, so a crash never leaks a stale cache generation.

Lock discipline (declared in ``repro.common.keys``): the frontend's
locks are never held while taking one another; their declared ranks —
``frontend.worker`` (12) < ``frontend.router`` (14) <
``frontend.admission`` (16) < ``serve.store`` (30) — keep every
acquisition the lockset/lock-order passes (and the runtime sanitizer)
see rank-increasing.  The engine-side locks live in the *worker
processes*, never under a frontend lock.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.api import connect
from repro.common.config import Configuration, check_session_conf
from repro.common.errors import (
    AdmissionError,
    ValidationError,
    WorkerCrashError,
)
from repro.common.keys import (
    KEY_CACHE_ENABLED,
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_AGGSTORE_BYTES,
    KEY_SERVE_MAX_CONCURRENT,
    KEY_SERVE_QUEUE_DEPTH,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_RESULT_CACHE_BYTES,
    KEY_SERVE_SESSION_QUOTA,
    KEY_SERVE_WORKER_RESPAWN,
    KEY_SERVE_WORKER_RETRIES,
    KEY_SERVE_WORKERS,
    KEY_TRACE,
    LOCK_FRONTEND_ADMISSION,
)
from repro.common.locking import guarded_lock
from repro.core.canonical import CanonicalQuery
from repro.core.query import StarQuery
from repro.core.result import QueryResult
from repro.mapreduce.fairshare import validate_shares
from repro.serve.aggstore import AggStore, AggStoreStats, Provenance
from repro.serve.cache import ResultCache, ResultCacheStats
from repro.serve.routing import ShapeRouter, query_shape
from repro.serve.session import (
    ExplainReport,
    SessionStats,
    answer_with_reuse,
    peek_reuse,
    trace_provenance,
)
from repro.serve.worker import WorkerHandle
from repro.trace.tracer import (
    CAT_CACHE,
    CAT_FRONTEND,
    CAT_ROUTE,
    CAT_WORKER,
    NULL_TRACER,
    STATUS_FAILED,
    NullTracer,
    SpanTree,
    Tracer,
)

#: ``_advance`` without a catalog swap (``None`` is a valid catalog:
#: workers regenerate the default data set).
_KEEP_DATA = object()


def _fresh_result(result: QueryResult) -> QueryResult:
    """A private copy of ``result`` (cached results must not alias the
    lists handed to clients)."""
    return QueryResult(
        query_name=result.query_name,
        columns=list(result.columns),
        rows=list(result.rows),
        simulated_seconds=result.simulated_seconds,
        breakdown=dict(result.breakdown))


def _result_nbytes(result: QueryResult) -> int:
    """The byte charge for caching ``result`` (its pickled size — the
    same wire format the worker shipped it in)."""
    return len(pickle.dumps(result))


# --------------------------------------------------------------------- #
# The frontend proper.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FrontendStats:
    """Snapshot of the frontend's admission and routing counters."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    in_flight: int = 0
    routed_warm: int = 0
    routed_cold: int = 0
    generation: int = 0


class FrontendSession:
    """One client's handle on a frontend: quota-tracked executes that
    route through the shared worker pool under this session's
    fair-share grant.  API-compatible with the single-process
    :class:`~repro.serve.session.Session` surface
    (``execute``/``sql``/``explain``/``reload_catalog``/``close``)."""

    def __init__(self, frontend: "Frontend", name: str,
                 share: float | None, quota: int,
                 trace: bool | None = None):
        self.frontend = frontend
        self.name = name
        self.share = share
        self.quota = quota
        self.trace = trace
        self.in_flight = 0
        #: Span tree of the most recent traced ``execute``.
        self.last_trace: SpanTree | None = None
        #: Evidence for the most recent ``execute``: ``source``
        #: ("worker", "result_cache", "agg_exact", or "agg_rollup"),
        #: ``provenance``, worker id, warm_route, attempts and — from
        #: the worker — ht_builds, cache hit/miss totals, generation.
        self.last_summary: dict[str, Any] | None = None

    def execute(self, query: StarQuery, *,
                trace: bool | None = None) -> QueryResult:
        """Admit ``query``, route it, and block for the result."""
        return self.frontend._execute(self, query, trace)

    def sql(self, sql_text: str, name: str = "sql-query") -> QueryResult:
        """Parse star-join SQL against the SSB schemas and execute."""
        from repro.core.sqlparser import parse_sql
        from repro.ssb.schema import SCHEMAS
        return self.execute(parse_sql(sql_text, dict(SCHEMAS),
                                      name=name))

    def explain(self, query: StarQuery) -> ExplainReport:
        """The typed plan report from the query's routed worker."""
        return self.frontend.explain(query)

    def reload_catalog(self, data: Any) -> None:
        self.frontend.reload_catalog(data)

    def cache_stats(self) -> ResultCacheStats | None:
        return self.frontend.result_cache_stats()

    def stats(self) -> SessionStats:
        """One typed snapshot, same surface as
        :meth:`repro.serve.session.Session.stats`: the frontend's
        admission/routing counters and shared caches, plus the
        provenance of this session's most recent answer."""
        summary = self.last_summary
        return SessionStats(
            backend=self.frontend.backend,
            name=self.name,
            aggstore=self.frontend.aggstore_stats(),
            result_cache=self.frontend.result_cache_stats(),
            frontend=self.frontend.stats(),
            provenance=(Provenance.from_dict(summary["provenance"])
                        if summary is not None else None))

    def close(self) -> None:
        """Detach this session (the frontend itself stays up)."""
        self.frontend._detach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrontendSession(name={self.name!r}, "
                f"share={self.share}, in_flight={self.in_flight})")


class Frontend:
    """Multi-worker serving frontend with warm-shard routing."""

    #: Admission/routing state the lock guards; ``sanitize=True``
    #: enforces this via :func:`repro.analyze.sanitizer.guard_fields`.
    GUARDED_FIELDS = ("_sessions", "_in_flight", "_submitted",
                      "_rejected", "_completed", "_failed", "_retries",
                      "_routed_warm", "_routed_cold", "_closed",
                      "_data", "generation")

    def __init__(self, *,
                 backend: str = "clydesdale",
                 data: Any | None = None,
                 conf: Configuration | None = None,
                 features: Any | None = None,
                 plan: str | None = None,
                 sanitize: bool = False):
        conf = conf or Configuration()
        check_session_conf(conf)
        self.backend = backend
        self.workers = conf.get_int(KEY_SERVE_WORKERS)
        if self.workers < 1:
            raise ValidationError(
                f"a frontend needs at least one worker, "
                f"got {self.workers}")
        self.max_concurrent = conf.get_int(KEY_SERVE_MAX_CONCURRENT)
        self.queue_depth = conf.get_int(KEY_SERVE_QUEUE_DEPTH)
        self.session_quota = conf.get_int(KEY_SERVE_SESSION_QUOTA)
        self.capacity = self.workers * self.max_concurrent \
            + self.queue_depth
        self.retries = conf.get_int(KEY_SERVE_WORKER_RETRIES)
        self._respawn = conf.get_bool(KEY_SERVE_WORKER_RESPAWN)
        self.trace = conf.get_bool(KEY_TRACE)
        if data is None:
            from repro.ssb.datagen import SSBGenerator
            data = SSBGenerator().generate()
        self._data = data
        self.generation = 0
        self._sessions: dict[str, FrontendSession] = {}
        self._in_flight = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._retries = 0
        self._routed_warm = 0
        self._routed_cold = 0
        self._closed = False
        # Every worker opens its session from this same ``conf``, so a
        # knob means the same thing in-process and behind the pipe.
        open_session = partial(connect, backend, conf=conf,
                               features=features, plan=plan)
        self._workers: dict[int, WorkerHandle] = {
            wid: WorkerHandle(wid, open_session, data, sanitize=sanitize)
            for wid in range(self.workers)}
        self._router = ShapeRouter(self._workers, sanitize=sanitize)
        self._results = (
            ResultCache(conf.get_int(KEY_SERVE_RESULT_CACHE_BYTES),
                        sanitize=sanitize)
            if conf.get_bool(KEY_SERVE_RESULT_CACHE) else None)
        # The frontend's own store answers before dispatch: a rollup
        # served here reaches no worker at all. Per-worker stores
        # coalesce duplicates queued on a pipe behind an in-flight first
        # execution. Like them it rides the hash-table cache.
        self._aggstore = (
            AggStore(conf.get_int(KEY_SERVE_AGGSTORE_BYTES),
                     sanitize=sanitize)
            if (conf.get_bool(KEY_SERVE_AGGSTORE)
                and conf.get_bool(KEY_CACHE_ENABLED)
                and backend != "reference") else None)
        self._lock = guarded_lock(self, LOCK_FRONTEND_ADMISSION,
                                  self.GUARDED_FIELDS, sanitize)

    # ------------------------------------------------------------------ #
    # Sessions and lifecycle.
    # ------------------------------------------------------------------ #

    def session(self, name: str = "session",
                share: float | None = None,
                quota: int | None = None,
                trace: bool | None = None) -> FrontendSession:
        """Attach (or fetch) the named session; ``share`` grants it a
        fair-share slot fraction (validated against every other
        explicitly-shared session)."""
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None:
                if share is not None:
                    existing.share = share
                    self._validate_shares()
                return existing
            handle = FrontendSession(
                self, name, share,
                quota if quota is not None else self.session_quota,
                trace if trace is not None else self.trace)
            self._sessions[name] = handle
            try:
                self._validate_shares()
            except Exception:
                del self._sessions[name]
                raise
            return handle

    def stats(self) -> FrontendStats:
        with self._lock:
            return FrontendStats(
                submitted=self._submitted,
                admitted=self._submitted - self._rejected,
                rejected=self._rejected,
                completed=self._completed,
                failed=self._failed,
                retries=self._retries,
                in_flight=self._in_flight,
                routed_warm=self._routed_warm,
                routed_cold=self._routed_cold,
                generation=self.generation)

    def result_cache_stats(self) -> ResultCacheStats | None:
        """Result-cache counters; None when the cache is disabled."""
        if self._results is None:
            return None
        return self._results.stats()

    def aggstore_stats(self) -> AggStoreStats | None:
        """Frontend aggregate-store counters; None when disabled."""
        if self._aggstore is None:
            return None
        return self._aggstore.stats()

    def router_snapshot(self) -> dict[int, int]:
        """Shapes pinned per live worker (routing visibility)."""
        return self._router.loads()

    def worker_stats(self) -> list[dict[str, Any]]:
        """Liveness + shard state per worker (dead workers included)."""
        infos: list[dict[str, Any]] = []
        for wid in sorted(self._workers):
            handle = self._workers[wid]
            if not handle.alive():
                infos.append({"worker": wid, "alive": False,
                              "pid": handle.pid(), "generation": None})
                continue
            try:
                info, _ = handle.request(("stats",))
            except WorkerCrashError:
                infos.append({"worker": wid, "alive": False,
                              "pid": handle.pid(), "generation": None})
                continue
            info = dict(info)
            info["alive"] = True
            info["executes"] = handle.execute_count()
            infos.append(info)
        return infos

    def explain(self, query: StarQuery) -> ExplainReport:
        """EXPLAIN on the worker the query *would* route to.

        Uses the router's read-only :meth:`ShapeRouter.peek` — nothing
        executes, so nothing may be pinned or counted as load, and the
        next real execute of this shape still routes (and warms) as if
        the EXPLAIN never happened. The worker's report comes back over
        the pipe; the frontend fills in the routing target and, when
        its own store would answer before dispatch, the store decision
        (the frontend check runs first on the execute path)."""
        worker_id, warm = self._router.peek(query_shape(query))
        report, _ = self._workers[worker_id].request(("explain", query))
        changes: dict[str, Any] = {
            "routing": {"worker": worker_id, "warm": warm}}
        if self._aggstore is not None:
            decision = peek_reuse(query, self._aggstore)
            if decision.kind != "miss":
                changes["aggstore"] = decision.kind
                changes["candidates"] = decision.candidates
        return dataclasses.replace(report, **changes)

    def reload_catalog(self, data: Any) -> int:
        """Swap the catalog: bump the generation, stamp the frontend's
        stores with it, and broadcast the reload to every worker
        **without a barrier** — each worker applies its stamped reload
        before its next query (pipe FIFO), and stale stamps are no-ops.
        Returns the new generation."""
        return self._advance(data)

    def invalidate_caches(self) -> int:
        """Expire the frontend's stores and every worker's shard (same
        barrier-free broadcast as :meth:`reload_catalog`, without a
        data swap)."""
        return self._advance(_KEEP_DATA)

    def _advance(self, data: Any) -> int:
        with self._lock:
            if self._closed:
                raise AdmissionError("frontend is closed",
                                     reason="closed")
            if data is not _KEEP_DATA:
                self._data = data
            self.generation += 1
            gen = self.generation
        for store in (self._results, self._aggstore):
            if store is not None:
                store.invalidate(generation=gen)
        msg = (("invalidate", gen) if data is _KEEP_DATA
               else ("reload", data, gen))
        for wid in sorted(self._workers):
            self._workers[wid].post(msg)
        return gen

    def close(self) -> None:
        """Stop admitting and shut every worker down.

        The dataset is released too: a frontend and its sessions refer
        to each other, so it would otherwise stay in memory until a
        full collection, and every worker forked meanwhile would
        inherit it."""
        with self._lock:
            self._closed = True
            self._data = None
        for wid in sorted(self._workers):
            self._workers[wid].shutdown()

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The execute path.
    # ------------------------------------------------------------------ #

    def _validate_shares(self) -> None:
        validate_shares({name: s.share
                         for name, s in self._sessions.items()
                         if s.share is not None})

    def _detach(self, session: FrontendSession) -> None:
        with self._lock:
            if self._sessions.get(session.name) is session:
                del self._sessions[session.name]

    def _admit(self, session: FrontendSession,
               query: StarQuery) -> None:
        with self._lock:
            self._submitted += 1
            if self._closed:
                self._rejected += 1
                raise AdmissionError(
                    f"frontend is closed; rejecting {query.name!r}",
                    reason="closed", session=session.name)
            if session.in_flight >= session.quota:
                self._rejected += 1
                raise AdmissionError(
                    f"session {session.name!r} already has "
                    f"{session.in_flight} queries in flight "
                    f"(quota {session.quota})",
                    reason="session-quota", session=session.name)
            if self._in_flight >= self.capacity:
                self._rejected += 1
                raise AdmissionError(
                    f"frontend saturated: {self._in_flight} queries in "
                    f"flight (capacity {self.capacity})",
                    reason="saturated", session=session.name)
            self._in_flight += 1
            session.in_flight += 1

    def _execute(self, session: FrontendSession, query: StarQuery,
                 trace: bool | None) -> QueryResult:
        self._admit(session, query)
        enabled = bool(session.trace if trace is None else trace)
        tracer = Tracer() if enabled else NULL_TRACER
        root = tracer.start(f"frontend:{query.name}", CAT_FRONTEND)
        root.set("session", session.name)
        root.set("backend", self.backend)
        try:
            result, summary = self._serve(session, query, tracer)
        except Exception:
            root.finish(STATUS_FAILED)
            with self._lock:
                self._failed += 1
            raise
        else:
            root.finish()
            session.last_summary = summary
            with self._lock:
                self._completed += 1
            return result
        finally:
            session.last_trace = tracer.tree() if enabled else None
            with self._lock:
                self._in_flight -= 1
                session.in_flight -= 1

    def _serve(self, session: FrontendSession, query: StarQuery,
               tracer: Tracer | NullTracer,
               ) -> tuple[QueryResult, dict]:
        canonical = CanonicalQuery(query)
        summary: dict[str, Any] = {"worker": None, "warm_route": None,
                                   "attempts": 0}
        if self._results is not None:
            cached = self._results.lookup(canonical.exact)
            if cached is not None:
                with tracer.span("result_cache", CAT_CACHE) as span:
                    span.set("hit", True)
                summary.update(source="result_cache", provenance=Provenance(
                    source="result_cache").to_dict())
                return _fresh_result(cached), summary
        # Every form of a query shares one shape, so the asked query's
        # routes whichever form runs (cut only if something does run).
        result, provenance = answer_with_reuse(
            query, self._aggstore,
            partial(self._dispatch, session, canonical, tracer, summary))
        summary["provenance"] = provenance.to_dict()
        if self._aggstore is not None and tracer is not NULL_TRACER:
            trace_provenance(tracer, provenance)
        if "source" not in summary:
            summary["source"] = provenance.source   # the frontend's store
        elif self._results is not None:
            # Stamp the entry with the generation the query actually
            # executed under: the worker reports the generation it had
            # applied at execute time (exact even when our execute raced
            # ahead of a reload broadcast on the worker's pipe), so
            # store() refuses an old-catalog result.
            self._results.store(canonical.exact, _fresh_result(result),
                                _result_nbytes(result),
                                generation=summary["generation"])
        return result, summary

    def _dispatch(self, session: FrontendSession,
                  canonical: CanonicalQuery, tracer: Tracer | NullTracer,
                  summary: dict, query: StarQuery,
                  ) -> tuple[QueryResult, Provenance]:
        """Route by shape, send ``query`` and block for the reply,
        retrying on another worker when one dies mid-query; the worker's
        evidence lands in ``summary``, its provenance is what ran."""
        attempts = 0
        while True:
            route_span = tracer.start("route", CAT_ROUTE)
            try:
                worker_id, warm = self._router.route(canonical.shape)
            except KeyError:
                route_span.finish(STATUS_FAILED)
                raise WorkerCrashError(
                    "no live workers to route to") from None
            route_span.set("worker", worker_id)
            route_span.set("warm", warm)
            route_span.finish()
            with self._lock:
                if warm:
                    self._routed_warm += 1
                else:
                    self._routed_cold += 1
            attempts += 1
            worker_span = tracer.start(f"worker:{worker_id}", CAT_WORKER)
            try:
                result, reply = self._workers[worker_id].request(
                    ("execute", query, session.share))
            except WorkerCrashError as crash:
                worker_span.finish(STATUS_FAILED)
                with self._lock:
                    self._retries += 1
                self._recover_worker(worker_id, crash.pid)
                if attempts > self.retries:
                    raise
                continue
            except Exception:
                worker_span.finish(STATUS_FAILED)
                raise
            worker_span.set("attempts", attempts)
            worker_span.finish()
            summary.update(reply, source="worker", warm_route=warm,
                           attempts=attempts)
            return result, Provenance.from_dict(reply["provenance"])

    def _recover_worker(self, worker_id: int,
                        crashed_pid: int | None = None) -> None:
        """Take a dead worker out of rotation and — when respawn is on
        — fork a replacement over the current catalog, replaying the
        current generation so the fresh shard cannot leak a stale one.

        ``crashed_pid`` makes recovery identity-aware: if the process
        the caller saw crash has already been replaced (another thread
        recovered it first), this is a no-op — the healthy replacement
        must not be condemned, and its routing pins must survive."""
        handle = self._workers[worker_id]
        if not handle.mark_dead(crashed_pid):
            return
        self._router.forget_worker(worker_id)
        if not self._respawn:
            return
        with self._lock:
            if self._closed:
                return
            data, gen = self._data, self.generation
        if handle.ensure_respawned(data, gen):
            # A reload_catalog that committed while the worker was down
            # had its broadcast dropped (post() to a dead worker returns
            # False), so the fresh fork may sit on the old catalog.
            # Re-read and replay until the worker matches the current
            # generation; once it is alive, later broadcasts land on
            # its pipe directly.
            while True:
                with self._lock:
                    cur_data, cur_gen = self._data, self.generation
                if cur_gen == gen or cur_data is None:   # None: closed
                    break
                if not handle.post(("reload", cur_data, cur_gen)):
                    break   # died again; the next recovery replays
                gen = cur_gen
        self._router.add_worker(worker_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Frontend(backend={self.backend!r}, "
                f"workers={self.workers}, capacity={self.capacity})")
