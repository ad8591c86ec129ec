"""Per-layer measurement from outside the program.

Nothing under ``src/`` is instrumented for this: every number here is
either timed by the benchmark around a call into a layer's *public*
function, read from a stats object the program already ships, or taken
from the shipped tracer's span tree.  Spans live in a benchmark-side
:class:`SpanRecorder` (name, start, end, parent, one id per request),
are kept in memory, and are written as Chrome-trace JSON when the run
ends.

The *layer walk* runs one query through the layers by hand —
``plan_star_join`` -> ``get_splits`` -> reader ``next()`` loop ->
``StarJoinMapper.initialize`` -> ``.map`` per block -> combiner /
``partition_output`` / ``merge_and_group`` -> ``StarJoinReducer.reduce``
-> ``apply_order_by`` — one span per call, single-threaded, under the
workload's own cache discipline (the session's hash-table cache where
the workload runs warm, none where it runs cold), and must return the
rows ``session.execute`` returns.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.hashtable import DimensionHashTable
from repro.core.joinjob import (
    StarJoinCombiner,
    StarJoinMapper,
    StarJoinReducer,
    resolve_aux_columns,
)
from repro.core.planner import plan_star_join
from repro.core.query import OrderKey, StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.mapreduce.api import TaskContext
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.shuffle import (
    HashPartitioner,
    merge_and_group,
    partition_output,
    run_combiner,
)
from repro.mapreduce.types import OutputCollector
from repro.serve.aggstore import AggStore, family_key
from repro.serve.routing import ShapeRouter, query_shape, result_key
from repro.ssb.schema import SCHEMAS
from repro.trace.tracer import CAT_JOB, CAT_WORKER, SpanTree

from harness import median

#: Layer spans of the walk, in pipeline order.
WALK_LAYERS = ("planner.plan", "cif.splits", "cif.scan", "joinjob.init",
               "joinjob.map", "shuffle.merge", "joinjob.reduce",
               "result.sort")


# --------------------------------------------------------------------- #
# The span recorder.
# --------------------------------------------------------------------- #


@dataclass
class RecordedSpan:
    span_id: int
    name: str
    start_s: float
    end_s: float
    parent_id: int | None
    request_id: str | None
    thread: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class SpanRecorder:
    """In-memory spans with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[RecordedSpan] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[RecordedSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None,
             **args: Any) -> Iterator[RecordedSpan]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = RecordedSpan(
                len(self.spans), name, time.perf_counter(), 0.0,
                parent.span_id if parent else None,
                request_id or (parent.request_id if parent else None),
                threading.current_thread().name, dict(args))
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end_s = time.perf_counter()
            stack.pop()

    def add(self, name: str, start_s: float, end_s: float,
            request_id: str, parent: RecordedSpan | None = None,
            **args: Any) -> RecordedSpan:
        """Record a span whose interval was measured elsewhere (the
        open-loop senders' due -> sent -> replied timeline)."""
        with self._lock:
            span = RecordedSpan(
                len(self.spans), name, start_s, end_s,
                parent.span_id if parent else None, request_id,
                threading.current_thread().name, dict(args))
            self.spans.append(span)
        return span

    def self_times(self, request_id: str | None = None
                   ) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part
        its children cover (children here never overlap)."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] = (covered.get(span.parent_id, 0.0)
                                           + span.duration_s)
        totals: dict[str, float] = {}
        for span in self.spans:
            if request_id is not None and span.request_id != request_id:
                continue
            own = span.duration_s - covered.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def to_chrome_trace(self) -> dict[str, Any]:
        threads = {name: i for i, name in enumerate(
            dict.fromkeys(s.thread for s in self.spans))}
        events = [{
            "name": span.name, "ph": "X", "pid": 1,
            "tid": threads[span.thread],
            "ts": (span.start_s - self._origin) * 1e6,
            "dur": span.duration_s * 1e6,
            "args": {"request": span.request_id, "parent": span.parent_id,
                     **span.args},
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------- #
# The layer walk.
# --------------------------------------------------------------------- #


@dataclass
class Walk:
    rows: list[tuple]
    blocks: list[Any]                 # every RowBlock the scan produced
    hash_tables: list[DimensionHashTable]
    counters: Counters


def walk_query(recorder: SpanRecorder, engine: Any, query: StarQuery,
               ht_cache: Any = None) -> Walk:
    """Run ``query`` through the layers' public functions, one span per
    call, under a ``walk`` span whose request id is the query name.
    ``ht_cache`` is the session's hash-table cache on workloads that
    run warm; None builds every table, as a cold query does."""
    fs = engine.fs

    def node_local_read(node_id: str, name: str) -> bytes:
        return fs.datanode(node_id).scratch_read(name)

    counters = Counters()
    blocks: list[Any] = []
    tables: list[DimensionHashTable] = []
    with recorder.span("walk", request_id=query.name):
        with recorder.span("planner.plan"):
            conf, _ = plan_star_join(
                query, engine.catalog, engine.cluster, engine.cost_model,
                engine.features, fs=fs)
        if ht_cache is not None:
            conf.ht_cache = ht_cache
        with recorder.span("cif.splits"):
            splits = conf.input_format.get_splits(fs, conf)
        task_pairs: list[list] = []
        context = None
        for number, split in enumerate(splits):
            node = (split.locations() or fs.live_nodes())[0]
            with recorder.span("cif.scan"):
                # The reader pulls its column bytes when it is built.
                reader = conf.input_format.get_record_reader(
                    fs, split, conf, reader_node=node)
            context = TaskContext(
                conf=conf, node_id=node, task_id=f"walk-{number}",
                jvm_state={}, node_local_read=node_local_read,
                threads=1, counters=counters)
            mapper = StarJoinMapper()
            collector = OutputCollector()
            with recorder.span("joinjob.init"):
                mapper.initialize(context)
            if not tables:
                tables = list(mapper.hash_tables)
            try:
                for child in reader.get_multiple_readers():
                    while True:
                        with recorder.span("cif.scan"):
                            pair = child.next()
                        if pair is None:
                            break
                        blocks.append(pair[1])
                        with recorder.span("joinjob.map"):
                            mapper.map(pair[0], pair[1], collector,
                                       context)
                counters.increment(Counters.GROUP_HDFS, "bytes_read",
                                   reader.bytes_read)
            finally:
                reader.close()
            with recorder.span("joinjob.map"):
                mapper.close(collector, context)
            task_pairs.append(collector.pairs)

        combiner = StarJoinCombiner()

        def combine(key, values):
            out = OutputCollector()
            combiner.reduce(key, values, out, context)
            return out.pairs

        reduces = conf.num_reduce_tasks()
        partitioner = HashPartitioner()
        with recorder.span("shuffle.merge"):
            buckets = [
                partition_output(
                    run_combiner(pairs, combine) if pairs else pairs,
                    partitioner, reduces)
                for pairs in task_pairs]
        output: list[tuple] = []
        for partition in range(reduces):
            with recorder.span("shuffle.merge"):
                groups = merge_and_group(
                    [task[partition] for task in buckets])
            reduce_context = TaskContext(
                conf=conf, node_id=f"reducer-{partition}",
                task_id=f"walk-r{partition}", jvm_state={},
                node_local_read=node_local_read, counters=counters)
            reducer = StarJoinReducer()
            collector = OutputCollector()
            with recorder.span("joinjob.reduce"):
                reducer.initialize(reduce_context)
                for key, values in groups:
                    reducer.reduce(key, values, collector,
                                   reduce_context)
            output.extend(collector.pairs)
        columns = list(query.group_by) + [a.alias
                                          for a in query.aggregates]
        rows = [tuple(key) + tuple(values) for key, values in output]
        with recorder.span("result.sort"):
            rows = apply_order_by(rows, columns, query.order_by,
                                  query.limit)
    return Walk(rows, blocks, tables, counters)


def run_job(engine: Any, query: StarQuery,
            ht_cache: Any = None) -> tuple[float, Any]:
    """``JobRunner.run`` on a freshly planned job, under the same cache
    discipline as the walk (and a runner of its own, so the session's
    JVM pool is left alone).  Returns (seconds, JobResult)."""
    conf, _ = plan_star_join(query, engine.catalog, engine.cluster,
                             engine.cost_model, engine.features,
                             fs=engine.fs)
    if ht_cache is not None:
        conf.ht_cache = ht_cache
    runner = JobRunner(engine.fs, engine.cluster, engine.cost_model)
    start = time.perf_counter()
    job = runner.run(conf)
    return time.perf_counter() - start, job


# --------------------------------------------------------------------- #
# Probes around single public functions.
# --------------------------------------------------------------------- #


def timed(fn, *args, **kwargs) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def probe_hash_tables(engine: Any, data: Any, query: StarQuery,
                      walk: Walk) -> dict[str, float]:
    """``DimensionHashTable.build`` per join from the dimension rows,
    then ``hit_mask`` / ``probe_block`` of the walk's tables on the
    walk's first block."""
    schemas = {table: engine.catalog.meta(table).schema
               for join in query.joins for table in join.all_tables()}
    out = {"build_s": 0.0, "entries": 0, "tables": 0, "vectorized": 0,
           "probe_s": 0.0, "probe_rows": 0}
    for join in query.joins:
        seconds, table = timed(
            DimensionHashTable.build, dimension=join.dimension,
            fact_fk=join.fact_fk, schema=SCHEMAS[join.dimension],
            rows=data.tables()[join.dimension], dim_pk=join.dim_pk,
            predicate=join.predicate,
            aux_columns=resolve_aux_columns(query, join, schemas))
        out["build_s"] += seconds
        out["entries"] += len(table)
    if not walk.blocks:
        return out
    block = walk.blocks[0]
    for table in walk.hash_tables:
        keys = block.columns[table.fact_fk]
        out["tables"] += 1
        out["vectorized"] += table.hit_mask(keys) is not None
        seconds, _ = timed(table.probe_block, keys,
                            range(block.num_rows))
        out["probe_s"] += seconds
        out["probe_rows"] += block.num_rows
    return out


def probe_filter(query: StarQuery, walk: Walk) -> tuple[float, int]:
    """The fact predicate over every block of the walk's scan:
    ``evaluate_mask`` where the buffers allow it, else
    ``evaluate_block``.  Returns (seconds, rows)."""
    predicate = query.fact_predicate
    seconds = 0.0
    rows = 0
    for block in walk.blocks:
        start = time.perf_counter()
        mask = predicate.evaluate_mask(block.columns, block.num_rows)
        if mask is None:
            predicate.evaluate_block(block.columns,
                                     range(block.num_rows))
        seconds += time.perf_counter() - start
        rows += block.num_rows
    return seconds, rows


def probe_routing(queries: list[StarQuery]) -> dict[str, float]:
    """Median microseconds of the four canonical-form functions."""
    router = ShapeRouter(range(2))
    timings: dict[str, list[float]] = {
        "shape_us": [], "result_key_us": [], "family_key_us": [],
        "route_us": []}
    for query in queries:
        seconds, shape = timed(query_shape, query)
        timings["shape_us"].append(seconds * 1e6)
        timings["result_key_us"].append(timed(result_key, query)[0] * 1e6)
        timings["family_key_us"].append(timed(family_key, query)[0] * 1e6)
        timings["route_us"].append(timed(router.route, shape)[0] * 1e6)
    return {name: median(values) for name, values in timings.items()}


def probe_aggstore(executed: list[tuple[StarQuery, list[tuple]]],
                   ) -> dict[str, float]:
    """``admit`` / ``fetch`` (exact, rollup) / ``invalidate`` on a store
    of the benchmark's own, fed with results the run produced.
    ``executed`` holds complete answers of grouped, limit-free
    queries."""
    store = AggStore(64 * 1024 * 1024)
    timings: dict[str, list[float]] = {
        "admit_us": [], "fetch_exact_us": [], "fetch_rollup_us": []}
    for query, rows in executed:
        columns = list(query.group_by) + [a.alias
                                          for a in query.aggregates]
        result = QueryResult(query.name, columns, list(rows))
        timings["admit_us"].append(
            timed(store.admit, query, result)[0] * 1e6)
        seconds, decision = timed(store.fetch, query.with_limit(5))
        if decision.kind == "exact":
            timings["fetch_exact_us"].append(seconds * 1e6)
        coarse = list(query.group_by[:-1])
        rolled = (query.with_order_by([OrderKey(c) for c in coarse])
                  .with_group_by(coarse))
        seconds, decision = timed(store.fetch, rolled)
        if decision.kind == "rollup":
            timings["fetch_rollup_us"].append(seconds * 1e6)
    out = {name: median(values) for name, values in timings.items()}
    out["invalidate_us"] = timed(store.invalidate)[0] * 1e6
    return out


# --------------------------------------------------------------------- #
# The shipped tracer's view.
# --------------------------------------------------------------------- #


def tracer_self_s(tree: SpanTree | None) -> float:
    """Root span (``session:<q>`` / ``frontend:<q>``) minus the engine
    or worker span under it: what the serving layer itself cost."""
    if tree is None:
        return 0.0
    total = 0.0
    for root in tree.roots():
        inner = sum(child.duration_s for child in tree.children(root)
                    if child.category in (CAT_JOB, CAT_WORKER))
        total += root.duration_s - inner
    return total
