"""HiveEngine — the paper's baseline, simulated faithfully.

Compiles a :class:`~repro.core.query.StarQuery` into Hive's multi-stage
plan (paper sections 6.1 and 6.3): one MapReduce job per dimension join
(mapjoin *or* repartition), each stage materializing its intermediate
result to HDFS, followed by a group-by job and an order-by step. All the
structural overheads the paper attributes to Hive are real here:

* joins happen one dimension at a time (several jobs per query);
* broadcast hash tables are built on the master, pushed through the
  distributed cache, and re-loaded by every map task;
* every map slot keeps its own copy of the hash table (simulated OOM
  when ``slots x table`` exceeds the node heap);
* no JVM reuse;
* intermediates are written to and re-read from HDFS between stages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import PlanningError
from repro.common.schema import Schema
from repro.core.joinjob import configure_query
from repro.core.planner import fact_scan_columns, validate_query
from repro.core.query import StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.core.expressions import TruePredicate
from repro.hdfs.filesystem import MiniDFS
from repro.hive.groupby import GroupByCombiner, GroupByMapper, GroupByReducer
from repro.hive.ioformats import RowTableOutputFormat
from repro.hive.mapjoin import (
    KEY_CACHE_FILE,
    KEY_CACHE_KNEE,
    KEY_FACT_PREDICATE,
    KEY_HT_BYTES_PER_ENTRY,
    KEY_INPUT_SCHEMA,
    KEY_OUTPUT_SCHEMA,
    KEY_RELOAD_RATE,
    KEY_ROWS_RATE,
    KEY_STAGE_FK,
    MapJoinMapper,
    build_broadcast_table,
)
from repro.hive import repartition as rp
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.mapreduce.scheduler import FifoScheduler
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.hardware import ClusterSpec, tiny_cluster
from repro.ssb.datagen import SSBData, SSBGenerator
from repro.ssb.loader import Catalog, load_for_hive
from repro.common.keys import (
    KEY_HIVE_DIM_SCHEMA,
    KEY_HIVE_DIM_TABLE_DIR,
    KEY_TRACE,
)
from repro.storage.rcfile import RCFileInputFormat
from repro.storage.rowformat import RowInputFormat
from repro.storage.tablemeta import FORMAT_RCFILE
from repro.trace.tracer import (
    CAT_JOB,
    CAT_PHASE,
    CAT_STAGE,
    NULL_TRACER,
    STATUS_FAILED,
    NullTracer,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.cache import HashTableCache

PLAN_MAPJOIN = "mapjoin"
PLAN_REPARTITION = "repartition"


@dataclass
class StageReport:
    """Timing/volume record for one stage of a Hive plan."""

    name: str
    simulated_seconds: float
    rows_in: int = 0
    rows_out: int = 0
    num_map_tasks: int = 0
    job: JobResult | None = None


@dataclass
class HiveStats:
    """Everything a Hive query execution measured."""

    query_name: str
    plan: str
    stages: list[StageReport] = field(default_factory=list)
    #: Session-cache effectiveness for mapjoin broadcast tables.
    ht_cache_hits: int = 0
    ht_cache_misses: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(s.simulated_seconds for s in self.stages)


class HiveEngine:
    """Executes star queries with Hive's one-dimension-at-a-time plans."""

    def __init__(self, fs: MiniDFS, catalog: Catalog,
                 cluster: ClusterSpec | None = None,
                 cost_model: CostModel | None = None,
                 default_plan: str = PLAN_MAPJOIN):
        if default_plan not in (PLAN_MAPJOIN, PLAN_REPARTITION):
            raise PlanningError(f"unknown Hive plan {default_plan!r}")
        self.fs = fs
        self.catalog = catalog
        self.cluster = cluster or tiny_cluster(workers=len(fs.node_ids))
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.default_plan = default_plan
        self.runner = JobRunner(fs, self.cluster, self.cost_model)
        self.last_stats: HiveStats | None = None
        #: The session's tracer and broadcast-table cache, set per run.
        self._tracer: Tracer | NullTracer = NULL_TRACER
        self._ht_cache: "HashTableCache | None" = None
        self._ht_generation: int | None = None
        #: Monotonic execution id: Hadoop gives every job a unique id,
        #: which keys the distributed cache (re-running a query must not
        #: reuse stale node-local hash-table copies).
        self._execution_id = 0

    @classmethod
    def with_ssb_data(cls, scale_factor: float = 0.01, seed: int = 42,
                      num_nodes: int = 4,
                      cluster: ClusterSpec | None = None,
                      cost_model: CostModel | None = None,
                      default_plan: str = PLAN_MAPJOIN,
                      data: SSBData | None = None,
                      row_group_size: int = 25_000) -> "HiveEngine":
        fs = MiniDFS(num_nodes=num_nodes)
        if data is None:
            data = SSBGenerator(scale_factor=scale_factor,
                                seed=seed).generate()
        catalog = load_for_hive(fs, data, row_group_size=row_group_size)
        engine = cls(fs, catalog, cluster=cluster, cost_model=cost_model,
                     default_plan=default_plan)
        engine.data = data
        return engine

    # ------------------------------------------------------------------ #

    def run(self, query: StarQuery, *,
            plan: str | None = None,
            tracer: Tracer | NullTracer = NULL_TRACER,
            ht_cache: "HashTableCache | None" = None,
            ht_generation: int | None = None) -> QueryResult:
        """Run the multi-stage Hive plan; may raise
        :class:`~repro.common.errors.JobFailedError` (e.g. mapjoin OOM).

        Called by :class:`~repro.serve.session.Session`, which owns the
        ``tracer`` (stage/job spans nest under the session span; the
        no-op tracer when tracing is off) and the ``ht_cache`` reusing
        master-built mapjoin broadcast tables across queries.
        ``ht_generation`` is the cache generation read before the run:
        a table built from a catalog a reload has since replaced is
        stored under it, and the cache refuses it as stale.
        """
        plan = plan or self.default_plan
        if plan not in (PLAN_MAPJOIN, PLAN_REPARTITION):
            raise PlanningError(f"unknown Hive plan {plan!r}")
        self._tracer = tracer
        self._ht_cache = ht_cache
        self._ht_generation = ht_generation
        query_span = tracer.start(f"query:{query.name}", CAT_JOB)
        try:
            result = self._execute_plan(query, plan, tracer)
        except Exception:
            query_span.finish(STATUS_FAILED)
            raise
        finally:
            self._tracer = NULL_TRACER
            self._ht_cache = None
            self._ht_generation = None
        query_span.finish()
        return result

    def _execute_plan(self, query: StarQuery, plan: str,
                      tracer) -> QueryResult:
        validate_query(query, self.catalog)
        if any(j.snowflake for j in query.joins):
            raise PlanningError(
                "the Hive baseline supports only plain star joins; "
                "snowflake branches are a Clydesdale feature here")
        fact_meta = self.catalog.meta(query.fact_table)
        if fact_meta.format != FORMAT_RCFILE:
            raise PlanningError(
                "the Hive baseline expects tables in RCFile format; load "
                "with load_for_hive()")

        stats = HiveStats(query_name=query.name, plan=plan)
        self.last_stats = stats
        self._execution_id += 1
        scratch = (f"/tmp/hive/{query.name.replace('.', '_')}"
                   f"_{self._execution_id}/{plan}")
        # Reclaim the previous execution's intermediates.
        previous = getattr(self, "last_scratch", None)
        if previous and self.fs.list_dir(previous):
            self.fs.delete(previous, recursive=True)
        self.last_scratch = scratch

        fact_columns = fact_scan_columns(query, self.catalog)
        current_schema = fact_meta.schema.project(fact_columns)
        current_dir = fact_meta.directory
        current_is_fact = True

        for index, join in enumerate(query.joins, start=1):
            dim_meta = self.catalog.meta(join.dimension)
            aux = query.aux_columns(join.dimension, dim_meta.schema.names)
            out_columns = (list(current_schema.columns)
                           + [dim_meta.schema.column(c) for c in aux])
            out_schema = Schema(out_columns)
            stage_dir = f"{scratch}/stage{index}"
            stage_name = f"stage{index}:{plan}-join:{join.dimension}"
            with tracer.span(stage_name, CAT_STAGE) as stage_span:
                if plan == PLAN_MAPJOIN:
                    report = self._run_mapjoin_stage(
                        query, join, aux, stage_name, current_dir,
                        current_is_fact, current_schema, out_schema,
                        stage_dir, scratch, first_stage=(index == 1))
                else:
                    report = self._run_repartition_stage(
                        query, join, aux, stage_name, current_dir,
                        current_is_fact, current_schema, out_schema,
                        stage_dir, first_stage=(index == 1))
                stage_span.set("rows_in", report.rows_in)
                stage_span.set("rows_out", report.rows_out)
            stats.stages.append(report)
            current_schema = out_schema
            current_dir = stage_dir
            current_is_fact = False

        with tracer.span("groupby", CAT_STAGE):
            group_report, output_pairs = self._run_groupby_stage(
                query, current_schema, current_dir,
                is_fact=current_is_fact)
        stats.stages.append(group_report)

        columns = list(query.group_by) + [a.alias for a in query.aggregates]
        rows = [tuple(key) + tuple(values) for key, values in output_pairs]
        if query.order_by:
            with tracer.span("sort", CAT_PHASE) as sort_span:
                ordered = apply_order_by(rows, columns, query.order_by,
                                         query.limit)
                sort_span.set("rows", len(rows))
        else:
            ordered = apply_order_by(rows, columns, query.order_by,
                                     query.limit)
        order_seconds = 0.0
        if query.order_by:
            order_seconds = (self.cost_model.job_overhead_s
                             + len(rows) / self.cost_model.final_sort_rows_s)
            stats.stages.append(StageReport(
                name=f"stage{len(query.joins) + 2}:orderby",
                simulated_seconds=order_seconds, rows_in=len(rows),
                rows_out=len(ordered)))

        breakdown = {s.name: s.simulated_seconds for s in stats.stages}
        return QueryResult(
            query_name=query.name, columns=columns, rows=ordered,
            simulated_seconds=stats.total_seconds,
            breakdown=breakdown)

    # -- stages ----------------------------------------------------------- #

    def _read_dimension(self, dim_meta, columns: list[str]) -> list[tuple]:
        """Master-side scan of a dimension table (projected)."""
        conf = JobConf("hive-master-scan")
        if self._tracer is not NULL_TRACER:
            conf.tracer = self._tracer
        conf.set_input_paths(dim_meta.directory)
        fmt = RCFileInputFormat()
        RCFileInputFormat.set_projection(conf, columns)
        rows = []
        for split in fmt.get_splits(self.fs, conf):
            reader = fmt.get_record_reader(self.fs, split, conf)
            try:
                for _, record in reader:
                    rows.append(tuple(record.values))
            finally:
                reader.close()
        return rows

    def _stage_conf(self, name: str, query: StarQuery,
                    input_dir: str, is_fact: bool,
                    input_schema: Schema) -> JobConf:
        conf = JobConf(name)
        conf.set_input_paths(input_dir)
        if is_fact:
            conf.input_format = RCFileInputFormat()
            RCFileInputFormat.set_projection(conf, list(input_schema.names))
        else:
            conf.input_format = RowInputFormat()
        conf.enable_jvm_reuse(False)  # Hive does not reuse JVMs (paper 6.4)
        conf.scheduler = FifoScheduler()
        if self._tracer is not NULL_TRACER:
            # Stage jobs run on the engine thread, so the runtime's job
            # span nests under the active stage span.
            conf.set(KEY_TRACE, True)
            conf.tracer = self._tracer
        conf.set(KEY_ROWS_RATE, self.cost_model.hive_rows_s_per_slot)
        conf.set(KEY_RELOAD_RATE, self.cost_model.hash_reload_bytes_s)
        conf.set(KEY_HT_BYTES_PER_ENTRY,
                 self.cost_model.hive_hash_bytes_per_entry)
        conf.set(KEY_CACHE_KNEE, self.cost_model.cache_knee_bytes)
        return conf

    def _run_mapjoin_stage(self, query: StarQuery, join, aux: list[str],
                           stage_name: str, input_dir: str, is_fact: bool,
                           input_schema: Schema, out_schema: Schema,
                           stage_dir: str, scratch: str,
                           first_stage: bool) -> StageReport:
        dim_meta = self.catalog.meta(join.dimension)
        needed = self._dim_columns(join, aux, dim_meta.schema)
        cache_path = f"{scratch}/ht_{join.dimension}.bin"
        cache_key = ("hive.mapjoin", join.dimension, join.dim_pk,
                     json.dumps(join.predicate.to_dict(), sort_keys=True),
                     tuple(needed), tuple(aux))
        # Master-side broadcast-table build (paper 6.3): its own build
        # phase span, with the dimension scan spans nested inside. A
        # session cache short-circuits the scan + build entirely — the
        # serialized payload is replayed into this execution's scratch
        # path so the distributed-cache push stays byte-identical.
        with self._tracer.span("build", CAT_PHASE) as build_span:
            hit = (self._ht_cache.get("master", cache_key)
                   if self._ht_cache is not None else None)
            if hit is not None:
                entries, payload = hit
                self.fs.write_file(cache_path, payload, overwrite=True)
                master_build_s = 0.0
                if self.last_stats is not None:
                    self.last_stats.ht_cache_hits += 1
            else:
                dim_rows = self._read_dimension(dim_meta, needed)
                dim_schema = dim_meta.schema.project(needed)
                entries, _ = build_broadcast_table(
                    self.fs, dim_schema, dim_rows, join.dim_pk,
                    join.predicate, aux, cache_path)
                master_build_s = (len(dim_rows)
                                  / self.cost_model.hash_build_rows_s)
                if self._ht_cache is not None:
                    payload = self.fs.read_file(cache_path)
                    self._ht_cache.put("master", cache_key,
                                       (entries, payload), len(payload),
                                       generation=self._ht_generation)
                    if self.last_stats is not None:
                        self.last_stats.ht_cache_misses += 1
            build_span.set("dimension", join.dimension)
            build_span.set("entries", entries)
            build_span.set("cached", hit is not None)

        conf = self._stage_conf(stage_name, query, input_dir, is_fact,
                                input_schema)
        conf.mapper_class = MapJoinMapper
        conf.set_num_reduce_tasks(0)
        conf.add_cache_file(cache_path)
        conf.set(KEY_STAGE_FK, join.fact_fk)
        conf.set(KEY_CACHE_FILE, cache_path)
        conf.set(KEY_INPUT_SCHEMA, json.dumps(input_schema.to_dict()))
        conf.set(KEY_OUTPUT_SCHEMA, json.dumps(out_schema.to_dict()))
        if first_stage and not isinstance(query.fact_predicate,
                                          TruePredicate):
            conf.set(KEY_FACT_PREDICATE,
                     json.dumps(query.fact_predicate.to_dict()))
        conf.output_format = RowTableOutputFormat(
            stage_dir, out_schema, f"{query.name}-{stage_name}")

        job = self.runner.run(conf)
        return StageReport(
            name=stage_name,
            simulated_seconds=master_build_s + job.simulated_seconds,
            rows_in=job.counters.get("hive", "stage_rows_in"),
            rows_out=job.counters.get("hive", "stage_rows_out"),
            num_map_tasks=job.num_map_tasks,
            job=job)

    def _run_repartition_stage(self, query: StarQuery, join,
                               aux: list[str], stage_name: str,
                               input_dir: str, is_fact: bool,
                               input_schema: Schema, out_schema: Schema,
                               stage_dir: str,
                               first_stage: bool) -> StageReport:
        dim_meta = self.catalog.meta(join.dimension)
        needed = self._dim_columns(join, aux, dim_meta.schema)

        fact_format: object
        if is_fact:
            fact_format = RCFileInputFormat()
        else:
            fact_format = RowInputFormat()
        dim_format = RCFileInputFormat()

        conf = self._stage_conf(stage_name, query, input_dir, is_fact,
                                input_schema)
        # Per-side projections: both sides use the rcfile.columns key, so
        # each side gets its own override when building sub-confs.
        union = rp.TaggedUnionInputFormat(
            fact_format, [input_dir], dim_format, [dim_meta.directory],
            fact_overrides={"rcfile.columns":
                            json.dumps(list(input_schema.names))},
            dim_overrides={"rcfile.columns": json.dumps(needed)})
        conf.input_format = union
        dim_conf_cols = needed
        conf.set(rp.KEY_DIM_AUX, json.dumps(aux))
        conf.set(rp.KEY_FACT_SIDE_FK, join.fact_fk)
        conf.set(rp.KEY_DIM_PK, join.dim_pk)
        conf.set(KEY_HIVE_DIM_TABLE_DIR, dim_meta.directory)
        conf.set(KEY_HIVE_DIM_SCHEMA, json.dumps(
            dim_meta.schema.project(dim_conf_cols).to_dict()))
        if not isinstance(join.predicate, TruePredicate):
            conf.set(rp.KEY_DIM_PREDICATE,
                     json.dumps(join.predicate.to_dict()))
        if first_stage and not isinstance(query.fact_predicate,
                                          TruePredicate):
            conf.set(rp.KEY_FACT_PREDICATE,
                     json.dumps(query.fact_predicate.to_dict()))
        conf.mapper_class = rp.RepartitionMapper
        conf.reducer_class = rp.RepartitionReducer
        conf.set_num_reduce_tasks(max(1, self.cluster.total_reduce_slots))
        conf.output_format = RowTableOutputFormat(
            stage_dir, out_schema, f"{query.name}-{stage_name}")

        job = self.runner.run(conf)
        return StageReport(
            name=stage_name,
            simulated_seconds=job.simulated_seconds,
            rows_in=job.counters.get("hive", "stage_rows_in"),
            rows_out=job.counters.get("hive", "stage_rows_out"),
            num_map_tasks=job.num_map_tasks,
            job=job)

    def _run_groupby_stage(self, query: StarQuery,
                           input_schema: Schema, input_dir: str,
                           is_fact: bool = False,
                           ) -> tuple[StageReport, list]:
        """``is_fact`` is True only for join-less queries, where the
        group-by job scans the RCFile fact table directly."""
        stage_name = f"stage{len(query.joins) + 1}:groupby"
        conf = self._stage_conf(stage_name, query, input_dir,
                                is_fact=is_fact, input_schema=input_schema)
        if is_fact and not isinstance(query.fact_predicate,
                                      TruePredicate):
            from repro.hive.groupby import KEY_GROUPBY_FACT_PREDICATE
            conf.set(KEY_GROUPBY_FACT_PREDICATE,
                     json.dumps(query.fact_predicate.to_dict()))
        conf.mapper_class = GroupByMapper
        conf.reducer_class = GroupByReducer
        conf.combiner_class = GroupByCombiner
        conf.set_num_reduce_tasks(max(1, self.cluster.total_reduce_slots))
        output = CollectingOutputFormat()
        conf.output_format = output
        configure_query(conf, query, input_schema, {})
        job = self.runner.run(conf)
        report = StageReport(
            name=stage_name, simulated_seconds=job.simulated_seconds,
            rows_in=job.counters.get("hive", "groupby_rows_in"),
            rows_out=len(output.results), num_map_tasks=job.num_map_tasks,
            job=job)
        return report, output.results

    @staticmethod
    def _dim_columns(join, aux: list[str], dim_schema: Schema) -> list[str]:
        needed = [join.dim_pk]
        for column in sorted(join.predicate.columns()):
            if column not in needed:
                needed.append(column)
        for column in aux:
            if column not in needed:
                needed.append(column)
        return needed
