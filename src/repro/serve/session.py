"""Query sessions: one uniform API over all three engines.

A :class:`Session` wraps a backend engine (``ClydesdaleEngine``,
``HiveEngine``, or ``ReferenceEngine``) behind one signature —
``execute(query, *, trace=None)`` / ``explain(query)`` / ``sql(text)``
— and carries the state that outlives a single query:

* the cross-query dimension hash-table cache
  (:class:`~repro.serve.cache.HashTableCache`), probed by Clydesdale's
  build phase and by Hive's master-side mapjoin build;
* a cross-job JVM pool (Clydesdale only), so repeat queries start on
  warm JVMs — together these extend the paper's within-job JVM reuse
  across queries;
* tracing: the session owns the only tracer of a query —
  ``execute(trace=True)`` roots the engine's spans under a
  ``session:<query>`` span plus a ``cache`` span with the hit/miss
  delta of this call.

Backend-specific execution options are fixed at construction time
(``features=`` for Clydesdale, ``plan=`` for Hive, ``slot_share=`` for
fair-share scheduling), which is what keeps the per-call surface
identical across backends. ``repro.api.connect`` is the usual way to
build one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

from repro.common.errors import ValidationError
from repro.core.query import Aggregate, OrderKey, StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.serve.aggstore import (
    AggDecision,
    AggStore,
    AggStoreStats,
    Provenance,
)
from repro.serve.cache import CacheStats, HashTableCache
from repro.trace.tracer import (
    CAT_CACHE,
    CAT_SESSION,
    NULL_TRACER,
    STATUS_FAILED,
    NullTracer,
    SpanTree,
    Tracer,
)

BACKENDS = ("clydesdale", "hive", "reference")


# --------------------------------------------------------------------- #
# The structured result/explain API.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExplainReport:
    """Structured EXPLAIN: what ``execute`` would do, and why.

    ``str(report)`` renders the legacy plan text, and ``"..." in
    report`` searches it, so existing string consumers keep working;
    new consumers read the typed fields.  Picklable — the scale-out
    frontend ships reports over the worker pipe and fills ``routing``
    in with the read-only router peek.
    """

    query_name: str
    backend: str
    plan: str                      # the legacy plan text
    shape: tuple                   # canonical shape (routing identity)
    aggstore: str | None           # "exact" | "rollup" | "miss" | None
    candidates: tuple[tuple[str, ...], ...] = ()
    routing: dict[str, Any] | None = None   # {"worker": id, "warm": bool}

    def __str__(self) -> str:
        return self.plan

    def __contains__(self, item: str) -> bool:
        return item in self.plan


@dataclass(frozen=True)
class SessionStats:
    """One typed snapshot of every per-session counter surface.

    ``execution`` is the backend's stats for the most recent query
    (None for the reference engine), ``cache``/``aggstore`` the
    session-owned caches, ``result_cache``/``frontend`` the scale-out
    layers (None on single-process sessions), and ``provenance`` how
    the most recent answer was produced.
    """

    backend: str
    name: str
    execution: Any | None = None
    cache: CacheStats | None = None
    aggstore: AggStoreStats | None = None
    result_cache: Any | None = None
    frontend: Any | None = None
    provenance: Provenance | None = None


def backend_name(engine: object) -> str:
    """Which backend an engine object implements, by defining module."""
    module = type(engine).__module__
    if ".hive." in module or module.endswith(".hive"):
        return "hive"
    if ".reference." in module or module.endswith(".reference"):
        return "reference"
    return "clydesdale"


def _rewrite_avg(query: StarQuery,
                 ) -> tuple[StarQuery, list[tuple] | None]:
    """Rewrite AVG aggregates to hidden SUM+COUNT pairs (store-time
    rewrite: the aggregate store only ever materializes re-aggregable
    functions). Returns the rewritten query — order-free and limit-free,
    the caller finalizes both — plus the per-output finalize plan; a
    query without AVG comes back as it is, with no plan."""
    if not any(a.function == "avg" for a in query.aggregates):
        return query, None
    rewritten: list[Aggregate] = []
    finalize: list[tuple] = []
    for agg in query.aggregates:
        if agg.function == "avg":
            total = Aggregate("sum", agg.expr, f"__avg_sum_{agg.alias}")
            count = Aggregate("count", agg.expr,
                              f"__avg_cnt_{agg.alias}")
            rewritten.extend([total, count])
            finalize.append(("avg", total.alias, count.alias))
        else:
            rewritten.append(agg)
            finalize.append(("plain", agg.alias))
    return (query.with_aggregates(rewritten)
            .without_order_by().without_limit(), finalize)


def _finalize_avg(query: StarQuery, full: QueryResult,
                  finalize: list[tuple]) -> QueryResult:
    """AVG = SUM/COUNT, finalized here — no engine ever sees an avg
    aggregate (``Aggregate.initial`` raises on one).

    The rewritten query ran order-free and limit-free (the hidden
    sum/count aliases cannot appear in an ORDER BY), so this finalizer
    owns the ordering: the requested keys plus every group column
    ascending — a total order, which makes a store-served answer and a
    fresh execution byte-identical by construction."""
    position = {name: i for i, name in enumerate(full.columns)}
    group_pos = [position[c] for c in query.group_by]
    rows = []
    for row in full.rows:
        out = [row[p] for p in group_pos]
        for step in finalize:
            if step[0] == "avg":
                total, count = row[position[step[1]]], \
                    row[position[step[2]]]
                out.append(total / count)
            else:
                out.append(row[position[step[1]]])
        rows.append(tuple(out))
    columns = list(query.group_by) + [a.alias for a in query.aggregates]
    order = list(query.order_by)
    seen = {key.column for key in order}
    order += [OrderKey(c) for c in query.group_by if c not in seen]
    rows = apply_order_by(rows, columns, order, query.limit)
    return QueryResult(query_name=query.name, columns=columns, rows=rows,
                       simulated_seconds=full.simulated_seconds,
                       breakdown=dict(full.breakdown))


def answer_with_reuse(
        query: StarQuery, store: AggStore | None,
        run: Callable[[StarQuery], tuple[QueryResult, Provenance]],
        ) -> tuple[QueryResult, Provenance]:
    """The reuse protocol, once, for every route to an answer.

    AVG becomes hidden SUM+COUNT; ``store`` answers when subsumption
    allows; on a miss ``run`` executes the *limit-free* query (a
    truncated answer cannot roll up) and the complete result is admitted
    under the generation read before the run, so an answer that raced a
    reload is refused; then the requested slice is cut — sort-then-slice
    is exactly ``apply_order_by``'s limit semantics — and AVG finalized.
    ``run`` returns the result plus the provenance of what ran: the
    session's engine reports ``executed``, the frontend's worker
    dispatch may itself report a worker-store hit, which passes through
    untouched.  ``store=None`` runs the query as asked."""
    asked = query
    query, finalize = _rewrite_avg(asked)
    if store is None:
        result, provenance = run(query)
    else:
        decision = store.fetch(query, any_order=finalize is not None)
        if decision.result is not None:
            result = decision.result
            provenance = Provenance(
                source=("agg_exact" if decision.kind == "exact"
                        else "agg_rollup"),
                candidates=decision.candidates,
                rolled_rows=decision.rolled_rows,
                rolled_bytes=decision.rolled_bytes)
        else:
            generation = store.current_generation()
            full = query.without_limit()
            result, provenance = run(full)
            store.admit(full, result, cost=result.simulated_seconds,
                        generation=generation)
            if provenance.source == "executed":
                provenance = replace(provenance,
                                     candidates=decision.candidates,
                                     declined=decision.declined)
            if (query.limit is not None
                    and len(result.rows) > query.limit):
                result = replace(result, rows=result.rows[:query.limit])
    if finalize is not None:
        result = _finalize_avg(asked, result, finalize)
    return result, provenance


def peek_reuse(query: StarQuery, store: AggStore) -> AggDecision:
    """What :func:`answer_with_reuse` would find in ``store`` — the
    read-only :meth:`AggStore.peek` on the form it would fetch."""
    return store.peek(_rewrite_avg(query)[0])


def trace_provenance(tracer: Tracer, provenance: Provenance) -> None:
    """The ``aggstore`` span: how the traced answer was produced."""
    with tracer.span("aggstore", CAT_CACHE) as span:
        for name, value in provenance.to_dict().items():
            span.set(name, value)


class Session:
    """One client's connection to an engine, with cross-query state.

    ``cache=None`` disables cross-query caching (every execute rebuilds
    its hash tables); pass a :class:`HashTableCache` — or use
    :func:`repro.api.connect`, which builds one sized by
    ``clydesdale.cache.ht_bytes`` — to reuse built hash tables across
    queries.
    """

    def __init__(self, engine: Any, *,
                 cache: HashTableCache | None = None,
                 aggstore: AggStore | None = None,
                 trace: bool | None = None,
                 features: Any | None = None,
                 plan: str | None = None,
                 slot_share: float | None = None,
                 name: str = "session",
                 rebuild: Callable[[Any], Any] | None = None):
        self.backend = backend_name(engine)
        self._engine = engine
        self.cache = cache
        #: Materialized aggregate store; None disables subsumption reuse.
        self.aggstore = aggstore
        self.name = name
        #: Default for ``execute(trace=None)``; None means off.
        self.trace = trace
        self.features = features
        self.plan = plan
        self.slot_share = slot_share
        self._rebuild = rebuild
        #: Span tree of the most recent session-traced ``execute``.
        self.last_trace: SpanTree | None = None
        #: How the most recent ``execute`` produced its answer.
        self.last_provenance: Provenance | None = None
        self._install_jvm_pool()

    # ------------------------------------------------------------------ #
    # The uniform public API.
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> Any:
        return self._engine

    def stats(self) -> SessionStats:
        """One typed snapshot of every counter this session keeps."""
        return SessionStats(
            backend=self.backend,
            name=self.name,
            execution=getattr(self._engine, "last_stats", None),
            cache=self.cache_stats(),
            aggstore=(self.aggstore.stats()
                      if self.aggstore is not None else None),
            provenance=self.last_provenance)

    def execute(self, query: StarQuery, *,
                trace: bool | None = None) -> QueryResult:
        """Run ``query`` on the backend; identical signature everywhere.

        With an aggregate store attached, the subsumption matcher may
        answer from materialized rows instead (``last_provenance``
        records which); a miss executes the limit-free query, admits
        the full answer, and returns the requested slice — byte-
        identical to a direct execution either way.

        ``trace=True`` wraps the engine's spans in a session span and
        records the cache hit/miss delta plus the aggstore decision;
        the finished tree lands on ``last_trace`` (and on the backend's
        ``ExecutionStats.trace/phases`` where it keeps them).
        """
        if not (self.trace if trace is None else trace):
            self.last_trace = None
            return self._execute_query(query, NULL_TRACER)
        tracer = Tracer()
        before = self.cache.stats() if self.cache is not None else None
        span = tracer.start(f"session:{query.name}", CAT_SESSION)
        span.set("backend", self.backend)
        span.set("session", self.name)
        try:
            result = self._execute_query(query, tracer=tracer)
        except Exception:
            span.finish(STATUS_FAILED)
            self.last_trace = tracer.tree()
            raise
        if before is not None:
            after = self.cache.stats()
            with tracer.span("cache", CAT_CACHE) as cache_span:
                cache_span.set("hits", after.hits - before.hits)
                cache_span.set("misses", after.misses - before.misses)
                cache_span.set("entries", after.entries)
                cache_span.set("bytes_cached", after.bytes_cached)
        if self.aggstore is not None:
            trace_provenance(tracer, self.last_provenance)
        span.finish()
        tree = tracer.tree()
        self.last_trace = tree
        self._attach_trace(tree)
        return result

    def explain(self, query: StarQuery) -> ExplainReport:
        """The plan ``execute`` would run, as a typed report.

        ``str()`` of the report is the legacy EXPLAIN text; the typed
        fields add the aggstore decision (via the store's read-only
        :meth:`AggStore.peek` — nothing is served or counted).
        """
        plan = self._plan_text(query)
        decision = (peek_reuse(query, self.aggstore)
                    if self.aggstore is not None else None)
        from repro.serve.routing import query_shape
        return ExplainReport(
            query_name=query.name,
            backend=self.backend,
            plan=plan,
            shape=query_shape(query),
            aggstore=decision.kind if decision is not None else None,
            candidates=(decision.candidates
                        if decision is not None else ()))

    def _plan_text(self, query: StarQuery) -> str:
        """The legacy EXPLAIN string for ``query`` (per backend)."""
        if self.backend == "clydesdale":
            return self._engine.explain(query, features=self.features,
                                        trace=bool(self.trace))
        if self.backend == "hive":
            from repro.core.explain import explain_hive
            engine = self._engine
            plan = self.plan or engine.default_plan
            return explain_hive(query, engine.catalog, plan=plan,
                                cluster=engine.cluster,
                                cost_model=engine.cost_model)
        lines = [f"REFERENCE PLAN for {query.name}",
                 "=" * (19 + len(query.name)),
                 f"scan {query.fact_table} in memory, filter "
                 f"{query.fact_predicate.to_sql()}"]
        for join in query.joins:
            lines.append(f"hash-lookup {join.dimension} on "
                         f"{join.fact_fk} = {join.dim_pk}")
        order = ", ".join(
            f"{key.column} desc" if key.descending else key.column
            for key in query.order_by)
        lines.append(f"group by {', '.join(query.group_by) or '()'}; "
                     f"order by {order or '()'}")
        return "\n".join(lines)

    def execute_for(self, query: StarQuery, *,
                    slot_share: float | None = None,
                    trace: bool | None = None) -> QueryResult:
        """Worker-facing execute: run ``query`` under a per-call
        fair-share grant without rebuilding the session.

        The scale-out frontend's workers serve many clients through one
        engine+cache pair; each client may carry its own slot share.
        ``slot_share=None`` (or the session's own share) is plain
        :meth:`execute`; otherwise the engine and cache are borrowed
        under the caller's grant for this one call.  One rule covers
        reuse and shares: reuse is consulted *before* a grant exists
        (the frontend's store answers share-carrying sessions without
        taking one), and an execute that does run under a borrowed
        grant bypasses this session's store — the borrowed session
        carries none, so its simulated time is the grant's.
        """
        if slot_share is None or slot_share == self.slot_share:
            return self.execute(query, trace=trace)
        borrowed = Session(self._engine, cache=self.cache, trace=False,
                           features=self.features, plan=self.plan,
                           slot_share=slot_share, name=self.name)
        result = borrowed.execute(query, trace=trace)
        self.last_provenance = borrowed.last_provenance
        return result

    def sql(self, sql_text: str, name: str = "sql-query") -> QueryResult:
        """Parse star-join SQL and ``execute`` it on this backend."""
        from repro.core.sqlparser import parse_sql
        return self.execute(parse_sql(sql_text, self._schemas(),
                                      name=name))

    # ------------------------------------------------------------------ #
    # Cache lifecycle.
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> CacheStats | None:
        """Cache effectiveness counters; None when caching is off."""
        return self.cache.stats() if self.cache is not None else None

    def invalidate_cache(self, generation: int | None = None) -> bool:
        """Drop every cached hash table and cool the JVM pool.

        ``generation=`` threads a frontend-issued generation stamp
        through to the cache shard (see
        :meth:`GenerationalStore.invalidate`): a stale or duplicate stamp
        is a no-op for the cache *and* the JVM pool, so per-worker
        shards invalidate independently without a global barrier and
        a replayed message never re-cools warm JVMs. Returns whether
        anything was invalidated.
        """
        applied = True
        if self.cache is not None:
            applied = self.cache.invalidate(generation=generation)
        if self.aggstore is not None:
            # Same stamp semantics as the HT cache: stale/duplicate
            # stamps are no-ops, so the two stay in lockstep.
            self.aggstore.invalidate(generation=generation)
        if applied:
            pool = self._jvm_pool()
            if pool is not None:
                pool.clear()
        return applied

    def reload_catalog(self, data: Any, *,
                       generation: int | None = None) -> None:
        """Reload the backend onto new base data and invalidate the
        cache, so no stale dimension rows can be served. Requires the
        session to have been built by ``repro.api.connect`` (or with an
        explicit ``rebuild=`` factory). ``generation=`` stamps the
        invalidation (scale-out workers pass the frontend's
        generation)."""
        if self._rebuild is None:
            raise ValidationError(
                "this Session has no rebuild factory; construct it via "
                "repro.api.connect() to enable reload_catalog()")
        self._engine = self._rebuild(data)
        self.invalidate_cache(generation=generation)
        self._install_jvm_pool()

    def close(self) -> None:
        """Release session state (cached hash tables, warm JVMs)."""
        self.invalidate_cache()

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def _execute_query(self, query: StarQuery,
                       tracer: Tracer | NullTracer) -> QueryResult:
        """Answer through the reuse protocol with this session's engine
        as what runs on a miss; sets ``last_provenance``."""
        result, self.last_provenance = answer_with_reuse(
            query, self.aggstore, partial(self._run_engine, tracer=tracer))
        return result

    def _run_engine(self, query: StarQuery, tracer: Tracer | NullTracer,
                    ) -> tuple[QueryResult, Provenance]:
        # The generation first, then the engine: reload_catalog swaps
        # the engine before it bumps the generation, so a query that
        # still runs the old engine publishes its tables under the old
        # generation and the cache refuses them.
        generation = (self.cache.current_generation()
                      if self.cache is not None else None)
        if self.backend == "clydesdale":
            result = self._engine.run(
                query, features=self.features, tracer=tracer,
                ht_cache=self.cache, ht_generation=generation,
                slot_share=self.slot_share)
        elif self.backend == "hive":
            result = self._engine.run(query, plan=self.plan, tracer=tracer,
                                      ht_cache=self.cache,
                                      ht_generation=generation)
        else:
            result = self._engine.execute(query)
        stats = getattr(self._engine, "last_stats", None)
        return result, Provenance(source="executed", scanned_rows=int(
            getattr(stats, "rows_probed", 0) or 0))

    def _attach_trace(self, tree: SpanTree) -> None:
        """Mirror the finished span tree onto the backend's
        ``ExecutionStats`` so ``stats().execution.phases`` is populated."""
        stats = getattr(self._engine, "last_stats", None)
        if stats is not None and hasattr(stats, "phases"):
            stats.trace = tree
            stats.phases = tree.phase_totals()

    def _schemas(self) -> dict[str, Any]:
        if self.backend == "reference":
            return dict(self._engine.schemas)
        return {table: meta.schema
                for table, meta in self._engine.catalog.tables.items()}

    def _jvm_pool(self) -> dict | None:
        runner = getattr(self._engine, "runner", None)
        return getattr(runner, "jvm_pool", None)

    def _install_jvm_pool(self) -> None:
        # Cross-job JVM reuse rides along with the cache: both are
        # session-owned warm state, invalidated together. Hive gets no
        # pool — the baseline deliberately never reuses JVMs. An
        # already-warm pool (several sessions sharing one engine) is
        # kept, not reset.
        if self.cache is not None and self.backend == "clydesdale":
            runner = self._engine.runner
            if getattr(runner, "jvm_pool", None) is None:
                runner.jvm_pool = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cached = "on" if self.cache is not None else "off"
        return (f"Session(backend={self.backend!r}, name={self.name!r}, "
                f"cache={cached})")
