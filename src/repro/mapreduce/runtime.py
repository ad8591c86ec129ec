"""The functional MapReduce job runner with simulated-time accounting.

Jobs really execute — real bytes come off mini-HDFS, real mappers and
reducers run, output is really written — while a parallel ledger charges
simulated seconds for every structural cost the paper's evaluation hinges
on: task launch and JVM start, HDFS scan bandwidth, engine-declared CPU
work, distributed-cache broadcast, shuffle transfer, and slot-wave
scheduling (via :mod:`repro.sim.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import JobFailedError, TaskOutOfMemoryError
from repro.common.keys import (
    CTR_TRACE_SPANS,
    KEY_GRANTED_THREADS,
    KEY_MAP_MAX_ATTEMPTS,
    KEY_TRACE,
)
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.api import MapRunner, TaskContext
from repro.mapreduce.counters import Counters
from repro.mapreduce.distcache import DistCacheReport, DistributedCache
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import OutputFormat, TextOutputFormat
from repro.mapreduce.scheduler import FifoScheduler, SchedulePlan
from repro.mapreduce.shuffle import (
    HashPartitioner,
    merge_and_group,
    partition_output,
    run_combiner,
)
from repro.mapreduce.types import OutputCollector
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.hardware import ClusterSpec, tiny_cluster
from repro.sim.scheduler import schedule, schedule_per_node
from repro.trace.tracer import (
    CAT_JOB,
    CAT_PHASE,
    CAT_STEP,
    CAT_TASK,
    NULL_TRACER,
    STATUS_FAILED,
    STATUS_RETRIED,
    Tracer,
    tracer_for,
)


@dataclass
class TaskReport:
    """Execution record for one task."""

    task_id: str
    node_id: str
    bytes_read: int = 0
    records_in: int = 0
    records_out: int = 0
    duration_s: float = 0.0
    jvm_reused: bool = False
    data_local: bool = True


@dataclass
class JobResult:
    """Everything a driver learns from a finished job."""

    job_name: str
    counters: Counters
    map_tasks: list[TaskReport]
    reduce_tasks: list[TaskReport]
    simulated_seconds: float
    breakdown: dict[str, float]
    plan: SchedulePlan
    distcache: DistCacheReport | None = None
    output_pairs: list[tuple[Any, Any]] = field(default_factory=list)

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_tasks)

    @property
    def map_output_records(self) -> int:
        return self.counters.get(Counters.GROUP_MAP, "output_records")


class JobRunner:
    """Runs MapReduce jobs against a mini-HDFS-backed simulated cluster."""

    def __init__(self, fs: MiniDFS, cluster: ClusterSpec | None = None,
                 cost_model: CostModel | None = None):
        self.fs = fs
        self.cluster = cluster or tiny_cluster(workers=len(fs.node_ids))
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.distcache = DistributedCache(fs)
        #: Optional session-owned cross-job JVM pool: node_id -> jvm_state.
        #: When set (and the job enables JVM reuse), map tasks of every
        #: job share it, so a repeat query starts on warm JVMs.
        self.jvm_pool: dict[str, dict] | None = None

    # ------------------------------------------------------------------ #

    def run(self, job: JobConf) -> JobResult:
        """Execute ``job``; raises :class:`JobFailedError` on task failure."""
        job.validate()
        tracer = tracer_for(job)
        if tracer is NULL_TRACER and job.get_bool(KEY_TRACE, False):
            # Flag set without an engine-attached tracer: the runtime
            # owns one, reachable afterwards as ``job.tracer``.
            tracer = Tracer()
            job.tracer = tracer
        spans_before = tracer.num_spans()
        counters = Counters()
        breakdown: dict[str, float] = {
            "job_overhead": self.cost_model.job_overhead_s}

        with tracer.span("job", CAT_JOB) as job_span:
            job_span.set("job", job.name)
            cache_report = self._localize_cache(job, breakdown)
            splits = job.input_format.get_splits(self.fs, job)
            if not splits:
                raise JobFailedError(f"job {job.name!r}: input has no splits")
            scheduler = job.scheduler or FifoScheduler()
            plan = scheduler.plan(splits, self.fs.live_nodes(), job,
                                  self.cluster)
            counters.increment(Counters.GROUP_JOB, "map_tasks", len(splits))

            with tracer.span("map_phase", CAT_STEP):
                map_reports, task_buckets = self._run_map_phase(
                    job, plan, counters, breakdown, tracer)
            with tracer.span("reduce_phase", CAT_STEP):
                reduce_reports, output_pairs = self._run_reduce_phase(
                    job, task_buckets, counters, breakdown, tracer)

            if tracer is not NULL_TRACER:
                counters.increment(Counters.GROUP_JOB, CTR_TRACE_SPANS,
                                   tracer.num_spans() - spans_before)
                for group, name, value in counters.items():
                    job_span.set(f"{group}.{name}", value)

        total = sum(breakdown.values())
        return JobResult(
            job_name=job.name,
            counters=counters,
            map_tasks=map_reports,
            reduce_tasks=reduce_reports,
            simulated_seconds=total,
            breakdown=breakdown,
            plan=plan,
            distcache=cache_report,
            output_pairs=output_pairs,
        )

    # -- phases ----------------------------------------------------------- #

    def _localize_cache(self, job: JobConf,
                        breakdown: dict[str, float]) -> DistCacheReport | None:
        if not job.distcache_files:
            return None
        report = self.distcache.localize(job.distcache_files, job.name)
        per_file_bytes = (report.bytes_broadcast
                          / max(1, len(self.fs.live_nodes())))
        breakdown["distcache"] = self.cost_model.distcache_cost(
            per_file_bytes, self.cluster)
        return report

    def _run_map_phase(self, job: JobConf, plan: SchedulePlan,
                       counters: Counters, breakdown: dict[str, float],
                       tracer=NULL_TRACER,
                       ) -> tuple[list[TaskReport], list[list]]:
        num_reduces = job.num_reduce_tasks()
        partitioner = job.partitioner or HashPartitioner()
        runner: MapRunner = (job.map_runner_class()
                             if job.map_runner_class else MapRunner())
        concurrency = plan.concurrency_per_node
        threads = max(1, self.cluster.node.map_slots // concurrency)
        # A fair-share scheduler may cap the task's CPU grant so
        # co-scheduled jobs get their cores (paper 5.2, requirement 3).
        granted = job.get_int(KEY_GRANTED_THREADS, 0)
        if granted > 0:
            threads = min(threads, granted)
        heap_per_task = self.cluster.heap_budget_per_node / concurrency
        jvm_reuse = job.jvm_reuse_enabled()

        reports: list[TaskReport] = []
        per_task_buckets: list[list[list]] = []
        # A session may install a cross-job JVM pool (``jvm_pool``) so
        # consecutive queries land on already-warm JVMs — the serving
        # layer's extension of the paper's within-job JVM reuse.  The
        # pool dict is owned (and invalidated) by the session.
        if self.jvm_pool is not None and jvm_reuse:
            node_states = self.jvm_pool
        else:
            node_states = {}
        durations_by_node: dict[str, list[float]] = {}

        max_attempts = job.get_int(KEY_MAP_MAX_ATTEMPTS, 4)
        for assignment in plan.assignments:
            node_id = assignment.node_id
            # Hadoop retries a failed task (up to mapred.map.max.attempts)
            # on a different node, avoiding nodes that already failed it.
            failed_nodes: list[str] = []
            last_error: Exception | None = None
            context = None
            for attempt in range(max_attempts):
                if attempt > 0:
                    candidates = [n for n in self.fs.live_nodes()
                                  if n not in failed_nodes]
                    if not candidates:
                        break
                    node_id = candidates[0]
                    counters.increment(Counters.GROUP_MAP,
                                       "task_retries")
                if jvm_reuse:
                    jvm_state = node_states.setdefault(node_id, {})
                    reused = bool(jvm_state.get("_jvm_warm"))
                    jvm_state["_jvm_warm"] = True
                else:
                    jvm_state = {}
                    reused = False
                # One span per attempt: a retried task leaves a "failed"
                # span behind and the retry opens a fresh one, so no
                # span leaks open across the retry boundary.
                task_span = tracer.start("map_task", CAT_TASK)
                task_span.set("task", assignment.task_id)
                task_span.set("node", node_id)
                task_span.set("attempt", attempt)
                context = TaskContext(
                    conf=job, node_id=node_id,
                    task_id=f"{assignment.task_id}-a{attempt}",
                    jvm_state=jvm_state,
                    node_local_read=self._node_local_read,
                    threads=threads, counters=counters,
                    tracer=tracer, span=task_span)
                collector = OutputCollector()
                mapper = job.mapper_class() if job.mapper_class else None
                try:
                    reader = job.input_format.get_record_reader(
                        self.fs, assignment.split, job,
                        reader_node=node_id)
                    try:
                        runner.run(reader, mapper, collector, context)
                    finally:
                        # Close per attempt: a failed attempt must not
                        # leak its reader into the retry (fd exhaustion
                        # under the fault injector).
                        bytes_read = reader.bytes_read
                        reader.close()
                    task_span.finish(STATUS_RETRIED if attempt > 0
                                     else None)
                    last_error = None
                    break
                except TaskOutOfMemoryError:
                    task_span.finish(STATUS_FAILED)
                    raise
                except Exception as exc:
                    task_span.finish(STATUS_FAILED)
                    last_error = exc
                    failed_nodes.append(node_id)
            if last_error is not None:
                raise JobFailedError(
                    f"job {job.name!r} task {assignment.task_id} failed "
                    f"after {len(failed_nodes)} attempt(s): {last_error}",
                    cause=last_error) from last_error
            if context.memory_required_bytes > heap_per_task:
                raise JobFailedError(
                    f"job {job.name!r} task {assignment.task_id} needs "
                    f"{context.memory_required_bytes / 2**20:.0f} MB but the "
                    f"slot heap is {heap_per_task / 2**20:.0f} MB",
                    cause=TaskOutOfMemoryError(assignment.task_id))

            pairs = collector.pairs
            if job.combiner_class is not None and pairs:
                combiner = job.combiner_class()
                ctx = context

                def combine(key, values, _c=combiner, _ctx=ctx):
                    out = OutputCollector()
                    _c.reduce(key, values, out, _ctx)
                    return out.pairs

                pairs = run_combiner(pairs, combine)
                counters.increment(Counters.GROUP_MAP, "combined_records",
                                   len(collector.pairs) - len(pairs))
            buckets = (partition_output(pairs, partitioner, num_reduces)
                       if num_reduces > 0 else [list(pairs)])
            per_task_buckets.append(buckets)

            duration = (self.cost_model.task_start_cost(reused)
                        + self.cost_model.scan_cost(bytes_read)
                        + context.charged_seconds)
            durations_by_node.setdefault(node_id, []).append(duration)
            reports.append(TaskReport(
                task_id=assignment.task_id, node_id=node_id,
                bytes_read=bytes_read, records_in=0,
                records_out=len(pairs), duration_s=duration,
                jvm_reused=reused, data_local=assignment.data_local))
            counters.increment(Counters.GROUP_HDFS, "bytes_read", bytes_read)
            counters.increment(Counters.GROUP_MAP, "output_records",
                               len(pairs))
            if not assignment.data_local:
                counters.increment(Counters.GROUP_MAP, "rack_remote_tasks")

        map_result = schedule_per_node(
            list(durations_by_node.values()) or [[0.0]],
            slots_per_node=concurrency)
        breakdown["map_phase"] = map_result.makespan
        return reports, per_task_buckets

    def _run_reduce_phase(self, job: JobConf, per_task_buckets: list,
                          counters: Counters, breakdown: dict[str, float],
                          tracer=NULL_TRACER,
                          ) -> tuple[list[TaskReport], list]:
        num_reduces = job.num_reduce_tasks()
        output_format: OutputFormat = (job.output_format
                                       or TextOutputFormat())
        output_pairs: list[tuple[Any, Any]] = []

        if num_reduces == 0:
            # Map-only job: map output goes straight to the output format.
            writer = output_format.get_writer(self.fs, job, 0)
            try:
                for buckets in per_task_buckets:
                    for key, value in buckets[0]:
                        writer.write(key, value)
                        output_pairs.append((key, value))
            finally:
                writer.close()
            output_format.finalize(self.fs, job)
            return [], output_pairs

        with tracer.span("shuffle", CAT_PHASE) as shuffle_span:
            shuffle_records = sum(
                len(bucket) for buckets in per_task_buckets
                for bucket in buckets)
            shuffle_bytes = _estimate_pairs_bytes(per_task_buckets)
            breakdown["shuffle"] = self.cost_model.network_transfer_cost(
                shuffle_bytes, self.cluster)
            shuffle_span.set("records", shuffle_records)
            shuffle_span.set("bytes", int(shuffle_bytes))
        counters.increment(Counters.GROUP_SHUFFLE, "records",
                           shuffle_records)
        counters.increment(Counters.GROUP_SHUFFLE, "bytes",
                           int(shuffle_bytes))

        reduce_reports = []
        reduce_durations = []
        for partition in range(num_reduces):
            reduce_span = tracer.start("reduce_task", CAT_TASK)
            reduce_span.set("partition", partition)
            try:
                with tracer.span("sort", CAT_PHASE) as sort_span:
                    groups = merge_and_group(
                        [buckets[partition]
                         for buckets in per_task_buckets])
                    sort_span.set("groups", len(groups))
                reducer = job.reducer_class()
                context = TaskContext(
                    conf=job, node_id=f"reducer-{partition}",
                    task_id=f"r-{partition:05d}", jvm_state={},
                    node_local_read=self._node_local_read,
                    tracer=tracer, span=reduce_span)
                collector = OutputCollector()
                reducer.initialize(context)
                try:
                    with tracer.span("aggregate", CAT_PHASE) as agg_span:
                        for key, values in groups:
                            reducer.reduce(key, values, collector,
                                           context)
                        reducer.close(collector, context)
                        agg_span.set("output_records",
                                     len(collector.pairs))
                except Exception as exc:
                    raise JobFailedError(
                        f"job {job.name!r} reducer {partition} failed: "
                        f"{exc}", cause=exc) from exc
            except Exception:
                reduce_span.finish(STATUS_FAILED)
                raise
            reduce_span.finish()
            writer = output_format.get_writer(self.fs, job, partition)
            try:
                for key, value in collector.pairs:
                    writer.write(key, value)
                    output_pairs.append((key, value))
            finally:
                writer.close()
            records_in = sum(len(v) for _, v in groups)
            duration = (self.cost_model.task_start_cost(False)
                        + context.charged_seconds
                        + self.cost_model.cpu_rows_cost(
                            records_in, self.cost_model.hive_reduce_rows_s))
            reduce_durations.append(duration)
            reduce_reports.append(TaskReport(
                task_id=f"r-{partition:05d}", node_id=f"reducer-{partition}",
                records_in=records_in, records_out=len(collector.pairs),
                duration_s=duration))
            counters.increment(Counters.GROUP_REDUCE, "input_records",
                               records_in)
            counters.increment(Counters.GROUP_REDUCE, "output_records",
                               len(collector.pairs))
        output_format.finalize(self.fs, job)
        reduce_result = schedule(
            reduce_durations,
            max(1, self.cluster.total_reduce_slots))
        breakdown["reduce_phase"] = reduce_result.makespan
        return reduce_reports, output_pairs

    # -- helpers ------------------------------------------------------------ #

    def _node_local_read(self, node_id: str, name: str) -> bytes:
        return self.fs.datanode(node_id).scratch_read(name)


def _estimate_pairs_bytes(per_task_buckets: list) -> float:
    """Rough serialized size of all shuffled pairs (sampled)."""
    total_records = 0
    sampled = 0
    sampled_bytes = 0
    for buckets in per_task_buckets:
        for bucket in buckets:
            total_records += len(bucket)
            for key, value in bucket[:8]:
                if sampled >= 256:
                    continue
                sampled += 1
                sampled_bytes += len(repr(key)) + len(repr(value)) + 8
    if total_records == 0 or sampled == 0:
        return 0.0
    return total_records * (sampled_bytes / sampled)
