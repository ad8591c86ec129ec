"""ClydesdaleEngine — the public query API of the reproduction.

>>> from repro.core.engine import ClydesdaleEngine
>>> from repro.serve.session import Session
>>> from repro.ssb.queries import ssb_queries
>>> session = Session(ClydesdaleEngine.with_ssb_data(scale_factor=0.002))
>>> result = session.execute(ssb_queries()["Q2.1"])
>>> result.columns
['d_year', 'p_brand1', 'revenue']

The engine owns a mini-HDFS (CIF fact table under the co-locating
placement policy, dimension tables cached node-locally), a simulated
cluster, and the calibrated cost model. Queries enter through a
:class:`~repro.serve.session.Session` (``repro.api.connect`` builds
one), which owns tracing and the cross-query caches and calls
:meth:`ClydesdaleEngine.run`; ``run`` really runs the star-join
MapReduce job and returns correct rows plus simulated timings and
execution statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.keys import (
    COUNTER_GROUP_CLYDESDALE,
    CTR_JOBS_PREPARED,
    KEY_TRACE,
)
from repro.core.canonical import CanonicalQuery
from repro.core.multipass import plan_passes, scratch_dir
from repro.core.planner import ClydesdaleFeatures, plan_join_passes
from repro.core.prepared import MULTI_PASS, NO_CACHE, PreparedJob
from repro.core.query import StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.mapreduce.counters import Counters
from repro.mapreduce.fairshare import FairShareScheduler
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.hardware import ClusterSpec, tiny_cluster
from repro.ssb.datagen import SSBData, SSBGenerator
from repro.ssb.loader import Catalog, load_for_clydesdale
from repro.trace.tracer import (
    CAT_JOB,
    CAT_PHASE,
    CAT_STEP,
    NULL_TRACER,
    STATUS_FAILED,
    NullSpan,
    NullTracer,
    Span,
    SpanTree,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.cache import HashTableCache, PreparedJobStore

#: Fact rows per CIF row group as loaded here: the B-CIF block size.
ROW_GROUP_SIZE = 25_000


@dataclass
class ExecutionStats:
    """What one query execution measured (feeds the SF1000 model)."""

    query_name: str
    job: JobResult
    rows_probed: int = 0
    rows_matched: int = 0
    #: Rows the block kernel handed to a per-row dict probe because a
    #: table had no mask to answer with (0 = the query never left the
    #: mask path).
    rows_scalar_probed: int = 0
    #: Dimension rows a hash-table build filtered one by one in Python
    #: because the predicate had no mask over the copy's columns (or a
    #: snowflake branch was flattened); 0 on a warm query. Counted once
    #: per real build: an adopted table filtered nothing again.
    dim_rows_rowwise: int = 0
    #: Surviving fact rows the block kernel emitted one pair each
    #: because it could not merge them per group (no combiner, a
    #: non-integer measure, the int64 bound; the probe span's
    #: ``emit_declined`` says which); 0 = every block emitted per group.
    rows_emitted_rowwise: int = 0
    hdfs_bytes_read: int = 0
    ht_builds: int = 0
    #: Tables a map task took from a build of the same job on
    #: byte-identical node-local copies instead of building them again;
    #: each still counts as its node's build.
    ht_tables_adopted: int = 0
    #: 1 when this run planned a job and kept it prepared for the next
    #: runs of the same query (:mod:`repro.core.prepared`); 0 when it
    #: ran a prepared job, or kept none.
    jobs_prepared: int = 0
    ht_cache_hits: int = 0
    ht_cache_misses: int = 0
    #: Always 0: row groups are never skipped. Kept only because the
    #: end-to-end benchmark reads it; it leaves with the benchmark-only
    #: change of ROADMAP item 1.
    rowgroups_pruned: int = 0
    ht_entries: dict[str, int] = field(default_factory=dict)
    ht_scanned: dict[str, int] = field(default_factory=dict)
    output_groups: int = 0
    #: Wall-clock seconds per phase span name (scan/build/probe/...),
    #: from the session's span tree; empty when tracing was off.
    phases: dict[str, float] = field(default_factory=dict)
    #: The session's full span tree when tracing was on.
    trace: SpanTree | None = None

    @classmethod
    def from_job(cls, query_name: str, job: JobResult) -> "ExecutionStats":
        counters = job.counters
        stats = cls(query_name=query_name, job=job)
        stats.rows_probed = counters.get("clydesdale", "rows_probed")
        stats.rows_matched = counters.get("clydesdale", "rows_matched")
        stats.rows_scalar_probed = counters.get("clydesdale",
                                                "rows_scalar_probed")
        stats.dim_rows_rowwise = counters.get("clydesdale",
                                              "dim_rows_rowwise")
        stats.rows_emitted_rowwise = counters.get("clydesdale",
                                                  "rows_emitted_rowwise")
        stats.hdfs_bytes_read = counters.get(Counters.GROUP_HDFS,
                                             "bytes_read")
        stats.ht_builds = counters.get("clydesdale", "ht_builds")
        stats.ht_tables_adopted = counters.get("clydesdale",
                                               "ht_tables_adopted")
        stats.jobs_prepared = counters.get("clydesdale", "jobs_prepared")
        stats.ht_cache_hits = counters.get("clydesdale", "ht_cache_hits")
        stats.ht_cache_misses = counters.get("clydesdale",
                                             "ht_cache_misses")
        for group, name, value in counters.items():
            if group != "clydesdale":
                continue
            if name.startswith("ht_entries:"):
                stats.ht_entries[name.split(":", 1)[1]] = value
            elif name.startswith("ht_scanned:"):
                stats.ht_scanned[name.split(":", 1)[1]] = value
        stats.output_groups = counters.get(Counters.GROUP_REDUCE,
                                           "output_records")
        return stats

    def selectivity(self, dimension: str) -> float:
        """Fraction of a dimension's rows passing its predicate."""
        scanned = self.ht_scanned.get(dimension, 0)
        if scanned == 0:
            return 0.0
        # Counters sum over per-node builds; the ratio is per-build exact.
        return self.ht_entries.get(dimension, 0) / scanned

    def join_selectivity(self) -> float:
        """Fraction of fact rows surviving all predicates and probes."""
        if self.rows_probed == 0:
            return 0.0
        return self.rows_matched / self.rows_probed


class ClydesdaleEngine:
    """Executes :class:`StarQuery` objects over a Clydesdale layout."""

    def __init__(self, fs: MiniDFS, catalog: Catalog,
                 cluster: ClusterSpec | None = None,
                 cost_model: CostModel | None = None,
                 features: ClydesdaleFeatures | None = None):
        self.fs = fs
        self.catalog = catalog
        self.cluster = cluster or tiny_cluster(workers=len(fs.node_ids))
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.features = features or ClydesdaleFeatures()
        self.runner = JobRunner(fs, self.cluster, self.cost_model)
        self.last_stats: ExecutionStats | None = None
        #: Session-owned store of prepared jobs (installed, and dropped,
        #: by a caching session, like ``runner.jvm_pool``); a run with a
        #: hash-table cache plans a single-pass query once per store
        #: generation and reuses the job after that.
        self.prepared_jobs: "PreparedJobStore | None" = None

    @classmethod
    def with_ssb_data(cls, scale_factor: float = 0.01, seed: int = 42,
                      num_nodes: int = 4,
                      cluster: ClusterSpec | None = None,
                      cost_model: CostModel | None = None,
                      features: ClydesdaleFeatures | None = None,
                      row_group_size: int = ROW_GROUP_SIZE,
                      data: SSBData | None = None) -> "ClydesdaleEngine":
        """Generate (or reuse) SSB data and build a ready engine."""
        fs = MiniDFS(num_nodes=num_nodes,
                     placement=CoLocatingPlacementPolicy())
        if data is None:
            data = SSBGenerator(scale_factor=scale_factor,
                                seed=seed).generate()
        catalog = load_for_clydesdale(fs, data,
                                      row_group_size=row_group_size)
        engine = cls(fs, catalog, cluster=cluster, cost_model=cost_model,
                     features=features)
        engine.data = data
        return engine

    def run(self, query: StarQuery, *,
            features: ClydesdaleFeatures | None = None,
            tracer: Tracer | NullTracer = NULL_TRACER,
            ht_cache: "HashTableCache | None" = None,
            ht_generation: int | None = None,
            slot_share: float | None = None) -> QueryResult:
        """Run a star query; returns ordered rows with simulated timing.

        Called by :class:`~repro.serve.session.Session`, which owns the
        ``tracer`` (the engine's spans nest under the session span; the
        no-op tracer when tracing is off), the shared ``ht_cache`` of
        built dimension hash tables with the cache generation
        ``ht_generation`` it read before it read this engine (every
        table the query builds is published under it, so a build that
        raced a catalog reload — it read this, the old, engine's copies
        — is refused, never stored as fresh: ``stale_drops``), and the
        fair-share ``slot_share`` granting this query a fraction of the
        cluster's map slots.

        If the dimension hash tables cannot all fit a node's heap at
        once, the query runs as the multi-pass plan of paper section
        5.1 (one subset of dimensions per pass over the data) — the
        same jobs, planned and run the same way, only more of them.
        """
        passes = self._plan_passes(query)
        return self._run_passes(query, passes if len(passes) > 1 else None,
                                features, tracer, ht_cache, ht_generation,
                                slot_share)

    def execute_multipass(self, query: StarQuery,
                          passes: list[list[str]] | None = None,
                          features: ClydesdaleFeatures | None = None,
                          ) -> QueryResult:
        """Run ``query`` joining one subset of dimensions per pass
        (paper section 5.1's strategy for oversized hash tables).

        ``passes`` lists dimension names per pass, in join order; when
        omitted, a memory-feasible partition is planned automatically.
        """
        return self._run_passes(
            query, self._plan_passes(query) if passes is None else passes,
            features)

    def _plan_passes(self, query: StarQuery) -> list[list[str]]:
        return plan_passes(
            query, self.catalog, self.cluster.heap_budget_per_node,
            self.cost_model.clydesdale_hash_bytes_per_entry)

    def _run_passes(self, query: StarQuery,
                    passes: list[list[str]] | None,
                    features: ClydesdaleFeatures | None,
                    tracer: Tracer | NullTracer = NULL_TRACER,
                    ht_cache: "HashTableCache | None" = None,
                    ht_generation: int | None = None,
                    slot_share: float | None = None) -> QueryResult:
        """Plan ``query`` as ``passes`` (None: the one pass over every
        dimension) and run the jobs in order on the engine's runner.

        The ``plan`` span times catalog validation and ``JobConf``
        assembly, or taking a prepared job (:meth:`_plan`).
        """
        query_span = tracer.start(f"query:{query.name}", CAT_JOB)
        try:
            with tracer.span("plan", CAT_STEP) as plan_span:
                confs, output, prepared = self._plan(
                    query, passes, features or self.features,
                    ht_cache is not None, plan_span)
            if len(confs) > 1:
                self.fs.delete(scratch_dir(query), recursive=True)
            jobs: list[JobResult] = []
            for conf in confs:
                if tracer is not NULL_TRACER:
                    conf.set(KEY_TRACE, True)
                    conf.tracer = tracer
                if ht_cache is not None:
                    conf.ht_cache = ht_cache
                    conf.ht_generation = ht_generation
                if slot_share is not None:
                    conf.scheduler = FairShareScheduler(slot_share)
                jobs.append(self.runner.run(conf))
            if prepared:
                jobs[-1].counters.increment(COUNTER_GROUP_CLYDESDALE,
                                            CTR_JOBS_PREPARED)
            columns = (list(query.group_by)
                       + [a.alias for a in query.aggregates])
            rows = [tuple(key) + tuple(values)
                    for key, values in output.results]
            if query.order_by:
                with tracer.span("sort", CAT_PHASE) as sort_span:
                    ordered = apply_order_by(rows, columns,
                                             query.order_by, query.limit)
                    sort_span.set("rows", len(rows))
            else:
                ordered = apply_order_by(rows, columns, query.order_by,
                                         query.limit)
            final_sort = (len(rows) / self.cost_model.final_sort_rows_s
                          if query.order_by else 0.0)
        except Exception:
            query_span.finish(STATUS_FAILED)
            raise
        query_span.finish()
        job = jobs[-1]
        if len(jobs) == 1:
            breakdown = dict(job.breakdown)
        else:
            # One line per pass, named as the pass planner named it.
            breakdown = {done.job_name.rpartition("#")[2]:
                         done.simulated_seconds for done in jobs}
            for earlier in jobs[:-1]:
                job.counters.merge(earlier.counters)
        if final_sort:
            breakdown["final_sort"] = final_sort
        # The session span is still open; the Session attaches the
        # finished tree to last_stats afterwards.
        self.last_stats = ExecutionStats.from_job(query.name, job)
        return QueryResult(
            query_name=query.name,
            columns=columns,
            rows=ordered,
            simulated_seconds=(sum(done.simulated_seconds for done in jobs)
                               + final_sort),
            breakdown=breakdown,
        )

    def _plan(self, query: StarQuery, passes: list[list[str]] | None,
              features: ClydesdaleFeatures, cached: bool,
              span: Span | NullSpan,
              ) -> tuple[list[JobConf], CollectingOutputFormat, bool]:
        """The jobs that answer ``query``, the collector of the answer,
        and whether this call prepared a job and kept it.

        A single-pass query of a caching run (``cached``: it has a
        hash-table cache, so a session owns :attr:`prepared_jobs`) is
        planned once per (canonical query, features, store generation);
        later runs copy the kept job and re-check its splits
        (:class:`~repro.core.prepared.PreparedJob`). Everything else is
        planned afresh. ``span`` says ``prepared`` (this run re-planned
        nothing and re-derived no split) and, when false, the reason.
        """
        store = self.prepared_jobs if cached else None
        if store is None or passes is not None:
            span.set("prepared", False)
            span.set("reason", NO_CACHE if store is None else MULTI_PASS)
            confs, output = plan_join_passes(
                query, passes, self.catalog, self.cluster,
                self.cost_model, features)
            return confs, output, False
        key = (CanonicalQuery(query).exact, features)
        generation = store.current_generation()
        job = store.get(None, key)
        fresh = job is None
        if fresh:
            (template,), _ = plan_join_passes(
                query, None, self.catalog, self.cluster, self.cost_model,
                features)
            job = PreparedJob(template)
        conf, output = job.run_conf()
        conf.splits, reason = job.splits(self.fs)
        kept = fresh and store.put(None, key, job, job.nbytes,
                                   generation=generation)
        span.set("prepared", reason is None)
        if reason is not None:
            span.set("reason", reason)
        return [conf], output, kept

    def explain(self, query: StarQuery,
                features: ClydesdaleFeatures | None = None,
                trace: bool = False) -> str:
        """Render the physical plan ``run`` would execute (EXPLAIN)."""
        from repro.core.explain import explain_clydesdale
        return explain_clydesdale(query, self.catalog, self.cluster,
                                  self.cost_model,
                                  features or self.features, trace=trace)
