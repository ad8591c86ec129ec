"""The Clydesdale star-join MapReduce job (paper Figures 4 and 5).

One MapReduce job executes the whole star join:

* **map init** — reuse, adopt or build one hash table per dimension
  from the node-local dimension cache, filtered by the dimension
  predicates (:meth:`StarJoinMapper._resolve_hash_tables`);
* **map** — scan the fact split (rows or B-CIF blocks), probe every hash
  table with early-out, emit (group-key, aggregate contributions);
* **combine/reduce** — merge aggregate states per group;
* **driver** — final single-process ORDER BY.

A B-CIF block runs through **one block kernel**
(:meth:`StarJoinMapper._map_block`): the first mask stage (the fact
predicate, else the most selective hash table) reads the whole block,
every later table tests only the rows still selected (a gather, or
key-index lookups where the keys have no dense index). Survivors then
leave as one pair per group when the job declares a combiner — measures
reduced exactly in int64 — and one pair per survivor otherwise (or when
the block declines, saying why). A single :class:`Record` takes the
per-row :meth:`StarJoinMapper.process_record` — the section 6.5
block-iteration ablation arm and the tests' row-wise oracle, selected
by ``cif.block.iteration`` alone.

The :class:`MTMapRunner` replaces Hadoop's default runner: it unpacks the
MultiCIF multi-split and feeds each thread its own reader while all
threads share the one set of hash tables (read-only after build, so no
synchronization is needed). Its join threads outlive the task
(:class:`JoinThreadPool`), as the paper's JVM reuse keeps a JVM.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from itertools import repeat
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.errors import MapReduceError, QueryError, SanitizerError
from repro.common.schema import Schema
from repro.core.canonical import CanonicalQuery
from repro.core.expressions import (
    TruePredicate,
    _ColumnsRowGetter,
    int64_safe,
    is_integral,
    magnitude,
)
from repro.core.hashtable import (
    DimensionHashTable,
    decode_branch,
    value_codes,
)
from repro.storage.columnvector import (
    DictionaryVector,
    NumericVector,
    as_index_array,
    gather_values,
)
from repro.core.query import StarQuery
from repro.mapreduce.api import MapRunner, Mapper, Reducer, TaskContext
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import OutputCollector, RecordReader
from repro.ssb.loader import dim_cache_name
from repro.storage.cif import RowBlock
from repro.trace.tracer import (
    CAT_PHASE,
    CAT_THREAD,
    NULL_TRACER,
    STATUS_FAILED,
)

# Configuration keys and the counter group, re-exported from the
# central registry in repro.common.keys.
from repro.common.keys import (  # noqa: E402
    COUNTER_GROUP_CLYDESDALE as COUNTER_GROUP,
    KEY_BUILD_RATE,
    KEY_DIM_SCHEMAS,
    KEY_FACT_SCHEMA,
    KEY_HT_BYTES_PER_ENTRY,
    KEY_PROBE_RATE,
    KEY_QUERY,
    KEY_SANITIZER,
)


class _Tally:
    """Per-thread probe counters, merged once at task close.

    Join threads bump their own tally lock-free; the mapper's lock is
    taken only once per thread (at registration), never per row or per
    block. ``scalar`` counts rows looked up one by one in a key index —
    the part of the probe work that left the mask path; ``rowwise`` counts
    survivors emitted one pair each instead of one pair per group.
    """

    __slots__ = ("probed", "matched", "scalar", "rowwise")

    def __init__(self) -> None:
        self.probed = 0
        self.matched = 0
        self.scalar = 0
        self.rowwise = 0


def configure_query(conf: JobConf, query: StarQuery, fact_schema: Schema,
                    dim_schemas: dict[str, Schema]) -> None:
    """Serialize the query plan into the job configuration
    (the paper's ``queryParams``, Figure 4 line 31).

    The parsed form rides along on the ``JobConf`` (next to
    ``ht_cache``/``tracer``), so the job's tasks and reducers do not
    each rebuild it from JSON; it dies with the job."""
    conf.set(KEY_QUERY, json.dumps(query.to_dict()))
    conf.set(KEY_FACT_SCHEMA, json.dumps(fact_schema.to_dict()))
    conf.set(KEY_DIM_SCHEMAS, json.dumps(
        {name: schema.to_dict() for name, schema in dim_schemas.items()}))
    conf.query_config = (query, fact_schema, dim_schemas)


def load_query_config(conf: JobConf) -> tuple[StarQuery, Schema, dict[str, Schema]]:
    parsed = getattr(conf, "query_config", None)
    if parsed is not None:
        return parsed
    query = StarQuery.from_dict(json.loads(conf.require(KEY_QUERY)))
    fact_schema = Schema.from_dict(json.loads(conf.require(KEY_FACT_SCHEMA)))
    dim_schemas = {
        name: Schema.from_dict(data)
        for name, data in json.loads(conf.require(KEY_DIM_SCHEMAS)).items()}
    return query, fact_schema, dim_schemas


def resolve_aux_columns(query: StarQuery, join,
                        dim_schemas: dict[str, Schema]) -> list[str]:
    """Group-by columns supplied by a join's whole (snowflake) branch,
    sorted: a table's payload layout must not depend on how the query
    spelled its GROUP BY, or equal tables would miss the cache."""
    tables = join.all_tables()
    return sorted({column for column in query.group_by
                   if any(column in dim_schemas[t] for t in tables)})


class _JobTables:
    """What the map tasks of one job share, computed once: per join, the
    aux columns and the :meth:`CanonicalQuery.table_key`; the group-key
    plan; and each aggregate's function name with its row and batch
    evaluators. Read-only once made, so a prepared job
    (:mod:`repro.core.prepared`) hands the same one to every run."""

    __slots__ = ("aux", "keys", "group_plan", "agg_fns", "agg_vec_fns",
                 "agg_functions")

    def __init__(self, query: StarQuery, fact_schema: Schema,
                 dim_schemas: dict[str, Schema]) -> None:
        canonical = CanonicalQuery(query)
        self.aux = [resolve_aux_columns(query, join, dim_schemas)
                    for join in query.joins]
        self.keys = [canonical.table_key(join, aux)
                     for join, aux in zip(query.joins, self.aux)]
        self.group_plan = StarJoinMapper._plan_group_keys(
            query, fact_schema, dim_schemas)
        self.agg_fns = [StarJoinMapper._make_agg_fn(agg)
                        for agg in query.aggregates]
        self.agg_vec_fns = [StarJoinMapper._make_agg_vec(agg)
                            for agg in query.aggregates]
        self.agg_functions = [agg.function for agg in query.aggregates]


def job_tables(conf: JobConf) -> _JobTables:
    """The job's :class:`_JobTables`, made by its first map task (or by
    whoever prepares the job). It rides on the ``JobConf`` next to
    ``query_config``; a copy of the conf shares it."""
    tables = getattr(conf, "job_tables", None)
    if tables is None:
        tables = conf.job_tables = _JobTables(*load_query_config(conf))
    return tables


def _job_builds(conf: JobConf) -> dict[tuple, tuple]:
    """The job's build memo — (table key, copy bytes built from) ->
    (table, rows scanned, read fact) — for one run of the job: it rides
    on the conf the runtime runs and dies with the run (a runtime runs a
    job's tasks one after another)."""
    builds = getattr(conf, "job_builds", None)
    if builds is None:
        builds = conf.job_builds = {}
    return builds


class StarJoinMapper(Mapper):
    """Figure 4's ``QMapper``: n-way hash probe with early-out."""

    def __init__(self) -> None:
        self.query: StarQuery | None = None
        self.hash_tables: list[DimensionHashTable] = []
        self._fk_names: list[str] = []
        self._group_plan: list[tuple[str, int, int]] = []
        self._agg_fns: list[Callable[[Callable[[str], Any]], Any]] = []
        self._agg_vec_fns: list[Callable] = []
        self._agg_functions: list[str] = []
        self._emit_declined: str | None = None
        self._fact_pred = None
        self._pred_is_true = False
        self._probe_order: list[int] = []
        self._rows_probed = 0
        self._rows_matched = 0
        self._rows_scalar_probed = 0
        self._rows_emitted_rowwise = 0
        self._lock = threading.Lock()
        self._tallies: list[_Tally] = []
        self._local = threading.local()
        self._sanitize = False
        self._closed = False
        self._tracer = NULL_TRACER
        self._build_span = NULL_TRACER.span("build", CAT_PHASE)

    # -- lifecycle --------------------------------------------------------- #

    def initialize(self, context: TaskContext) -> None:
        query, _, dim_schemas = load_query_config(context.conf)
        plans = job_tables(context.conf)
        self.query = query
        self._tracer = context.tracer
        self._fact_pred = query.fact_predicate
        self._pred_is_true = isinstance(self._fact_pred, TruePredicate)
        self._fk_names = [j.fact_fk for j in query.joins]
        # Each fresh build says on this span what it read and how.
        with self._tracer.span("build", CAT_PHASE) as self._build_span:
            self.hash_tables = self._resolve_hash_tables(
                context, query, dim_schemas, plans)
            self._build_span.set("tables", len(self.hash_tables))
        self._probe_order = self._plan_probe_order()
        self._group_plan = plans.group_plan
        self._agg_fns = plans.agg_fns
        self._agg_vec_fns = plans.agg_vec_fns
        self._agg_functions = plans.agg_functions
        # Merging a block's survivors into one pair per group is the
        # combiner's job done early; only a job that declares one (with
        # this job's merge rules) may have its map output pre-merged.
        combiner = context.conf.combiner_class
        self._emit_declined = (
            None if isinstance(combiner, type)
            and issubclass(combiner, StarJoinReducer) else "no combiner")
        self._sanitize = context.conf.get_bool(KEY_SANITIZER, False)
        if self._sanitize:
            # Turn the "read-only after build" comment into an enforced
            # invariant: any post-publish mutation raises SanitizerError.
            from repro.analyze.sanitizer import freeze_hash_tables
            freeze_hash_tables(self.hash_tables)
        ht_bytes = sum(
            ht.stats.estimated_bytes(
                context.conf.get_float(KEY_HT_BYTES_PER_ENTRY, 64.0))
            for ht in self.hash_tables)
        context.require_memory(ht_bytes)

    def _resolve_hash_tables(
            self, context: TaskContext, query: StarQuery,
            dim_schemas: dict[str, Schema],
            job: _JobTables) -> list[DimensionHashTable]:
        """One table per join, through one build-or-reuse loop:

        1. the task's region — the session cache's node region, or the
           task JVM's ``jvm_state`` (the paper's JVM reuse) when the
           job has no session cache — keyed on
           :meth:`CanonicalQuery.table_key`, so a different predicate
           or projection can never alias a table;
        2. else a table this job already built from the same node-local
           copy bytes (:meth:`_adopt_or_build`);
        3. else a fresh build from this node's copy.

        A table from 2 or 3 is a miss: it is stored in the region and
        charged to the task as its node's build, so counters and
        simulated time describe the cluster, not the emulation. A warm
        query performs no build at all (``ht_builds`` stays 0).
        """
        conf = context.conf
        builds = _job_builds(conf)
        cache = getattr(conf, "ht_cache", None)
        region = context.jvm_state
        node = context.node_id
        per_entry = conf.get_float(KEY_HT_BYTES_PER_ENTRY, 64.0)
        generation = getattr(conf, "ht_generation", None)
        tables: list[DimensionHashTable] = []
        max_fresh_rows = 0
        misses = 0
        for join, key, aux in zip(query.joins, job.keys, job.aux):
            entry = (region.get(key) if cache is None
                     else cache.get(node, key))
            if entry is None:
                misses += 1
                entry = self._adopt_or_build(context, join, dim_schemas,
                                             key, aux, builds)
                if cache is None:
                    region[key] = entry
                else:
                    cache.put(node, key, entry,
                              entry[0].stats.estimated_bytes(per_entry),
                              generation=generation)
                max_fresh_rows = max(max_fresh_rows, entry[1])
            table, rows_scanned = entry
            tables.append(table)
            context.count(COUNTER_GROUP,
                          f"ht_entries:{join.dimension}", len(table))
            context.count(COUNTER_GROUP,
                          f"ht_scanned:{join.dimension}", rows_scanned)
        if cache is not None:
            context.count(COUNTER_GROUP, "ht_cache_hits",
                          len(tables) - misses)
            context.count(COUNTER_GROUP, "ht_cache_misses", misses)
        if misses:
            context.count(COUNTER_GROUP, "ht_builds")
            # The build parallelizes one thread per dimension (paper
            # 4.2), so the wall time is set by the largest table built.
            build_rate = conf.get_float(KEY_BUILD_RATE, 160_000.0)
            context.charge(max_fresh_rows / build_rate)
        else:
            context.count(COUNTER_GROUP, "ht_builds_reused")
        return tables

    def _adopt_or_build(self, context: TaskContext, join,
                        dim_schemas: dict[str, Schema], key: tuple,
                        aux: list[str], memo: dict,
                        ) -> tuple[DimensionHashTable, int]:
        """This task's table for ``join``: the one ``memo`` (the job's
        builds) holds for the same key and the same copy bytes — the
        same table this node would build — or a fresh build. Returns
        (table, rows scanned).

        The node-local copies are read first either way, so a dead node
        or a lost copy fails the attempt, and the task retries, exactly
        as a build would. ``write_dim_cache`` hands every node the same
        ``bytes`` object, whose hash is cached, so the lookup is an
        identity test unless a node's copy was rewritten.
        """
        copies = tuple(context.read_node_local(dim_cache_name(name))
                       for name in join.all_tables())
        adopted = memo.get((key, copies))
        if adopted is not None:
            table, rows_scanned, read = adopted
            context.count(COUNTER_GROUP, "ht_tables_adopted")
            self._build_span.set(f"read:{join.dimension}",
                                 {**read, "adopted": True})
            return table, rows_scanned
        table, rows_scanned, read = self._build_one_table(
            context, join, dim_schemas, aux, copies)
        memo[(key, copies)] = (table, rows_scanned, read)
        return table, rows_scanned

    def _build_one_table(self, context: TaskContext, join,
                         dim_schemas: dict[str, Schema], aux: list[str],
                         copies: tuple[bytes, ...],
                         ) -> tuple[DimensionHashTable, int, dict]:
        """Build one dimension (or snowflake branch) hash table from the
        node-local dimension ``copies`` (one per ``join.all_tables()``),
        decoding only the columns the build reads. Returns (table, rows
        scanned, the ``read:<dimension>`` fact set on the build span)."""
        decoded = decode_branch(join, dim_schemas, copies, aux)
        rows_scanned = sum(rows for rows, _ in decoded.values())
        table = DimensionHashTable.from_branch(join, dim_schemas, decoded,
                                               aux)
        rowwise = table.stats.rows_rowwise
        context.count(COUNTER_GROUP, "dim_rows_rowwise", rowwise)
        read = {
            "rows_scanned": rows_scanned,
            "columns_read": sum(len(c) for _, c in decoded.values()),
            "columns_total": sum(len(dim_schemas[n]) for n in decoded),
            "predicate_masked": not rowwise}
        self._build_span.set(f"read:{join.dimension}", read)
        return table, rows_scanned, read

    @staticmethod
    def _plan_group_keys(query: StarQuery, fact_schema: Schema,
                         dim_schemas: dict[str, Schema],
                         ) -> list[tuple[str, int, int]]:
        """Resolve each group-by column to its source.

        Returns tuples ``("fact", fact_col_index_placeholder, 0)`` or
        ``("dim", join_index, aux_index)``; fact columns are fetched by
        name at probe time (the projected record's schema varies).
        """
        plan: list[tuple[str, int, int]] = []
        for column in query.group_by:
            if column in fact_schema:
                plan.append(("fact", -1, 0))
                continue
            located = False
            for join_index, join in enumerate(query.joins):
                if any(column in dim_schemas[t]
                       for t in join.all_tables()):
                    aux = resolve_aux_columns(query, join, dim_schemas)
                    plan.append(("dim", join_index, aux.index(column)))
                    located = True
                    break
            if not located:
                raise QueryError(
                    f"group-by column {column!r} not found in the fact "
                    f"table or any joined dimension")
        return plan

    @staticmethod
    def _make_agg_fn(agg) -> Callable[[Callable[[str], Any]], Any]:
        if agg.function == "count":
            return lambda get: 1
        expr = agg.expr
        return expr.evaluate

    @staticmethod
    def _make_agg_vec(agg) -> Callable:
        """The batch form of :meth:`_make_agg_fn`: (columns, selection)
        -> numpy array, broadcastable scalar, or None (unsupported)."""
        if agg.function == "count":
            return lambda columns, selection: 1
        expr = agg.expr
        return expr.evaluate_vector

    def _plan_probe_order(self) -> list[int]:
        """Join indexes in probe order: tables with a dense index first
        (a gather per stage; key-index lookups then run on the fewest
        rows), each group most-selective-first (early-out ordering).

        A table's expected match rate is ``entries / rows_scanned`` — the
        fraction of the dimension its predicate kept, which (under the
        uniform-FK assumption) is the fraction of fact rows it passes.
        Probing the lowest rate first shrinks the selection fastest; the
        sort is stable, so ties keep query join order.
        """
        def rank(index: int) -> tuple[bool, float]:
            table = self.hash_tables[index]
            return (table._dense is None,
                    table.stats.entries / max(1, table.stats.rows_scanned))
        return sorted(range(len(self.hash_tables)), key=rank)

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            if self._sanitize and self._closed:
                raise SanitizerError(
                    f"join thread registered a tally after task close "
                    f"in mapper for query "
                    f"{self.query.name if self.query else '?'!s}")
            tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
            self._local.tally = tally
        return tally

    # -- the probe pipeline ------------------------------------------------ #

    def process_record(self, get: Callable[[str], Any],  # analyze: allow-alloc
                       collector: OutputCollector) -> bool:
        """Probe one fact row; emit on full match. Returns hit/miss.

        Row-at-a-time by contract (the scalar API); per-row allocation
        is inherent here, which is exactly why the block path exists.
        """
        aux_values = self._probe_row(get)
        if aux_values is None:
            return False
        group_key = tuple(
            get(self.query.group_by[i]) if source == "fact"
            else aux_values[join_index][aux_index]
            for i, (source, join_index, aux_index)
            in enumerate(self._group_plan))
        values = tuple(fn(get) for fn in self._agg_fns)
        collector.collect(group_key, values)
        return True

    def _probe_row(self, get: Callable[[str], Any],  # analyze: allow-alloc
                   ) -> list[tuple] | None:
        """One fact row's aux tuple from every table, or ``None`` when it
        fails the fact predicate or misses a table (early-out, paper 4.2)."""
        if not self._fact_pred.evaluate(get):
            return None
        aux_values: list[tuple] = []
        for name, table in zip(self._fk_names, self.hash_tables):
            aux = table.probe(get(name))
            if aux is None:
                return None
            aux_values.append(aux)
        return aux_values

    def map(self, key: Any, value: Any, collector: OutputCollector,
            context: TaskContext) -> None:
        if isinstance(value, RowBlock):
            self._map_block(value, collector)
        else:
            record = value
            matched = self.process_record(record.get, collector)
            tally = self._tally()
            tally.probed += 1
            tally.matched += 1 if matched else 0

    def _map_block(self, block: RowBlock, collector: OutputCollector,
                   ) -> None:
        """The block kernel: select survivors, then emit for them only
        (paper 5.3's survivors-only tuple reconstruction) — one pair per
        group when the job has a combiner (:meth:`_emit_grouped`), else
        one per survivor through the :meth:`_emit_block` hook."""
        # One span per block batch (never per row): with tracing off
        # this is two no-op calls on the shared null span.
        with self._tracer.span("probe", CAT_PHASE) as probe_span:
            selection, scalar_probed = self._select(block)
            matched = len(selection)
            groups, declined = 0, None
            if matched:
                columns = block.columns
                declined = self._emit_declined
                if declined is None:
                    groups, declined = self._emit_grouped(
                        columns, selection, collector)
                if declined is not None:
                    # Aux tuples are gathered once, for final survivors.
                    aux_by_join = [
                        table.gather_aux(columns[name], selection)
                        for name, table in zip(self._fk_names,
                                               self.hash_tables)]
                    self._emit_block(block, selection, aux_by_join,
                                     collector)
                    groups = matched
            probe_span.set("rows", block.num_rows)
            probe_span.set("matched", matched)
            probe_span.set("rows_scalar_probed", scalar_probed)
            probe_span.set("groups", groups)
            probe_span.set("emit_declined", declined)
        tally = self._tally()
        tally.probed += block.num_rows
        tally.matched += matched
        tally.scalar += scalar_probed
        if declined is not None:
            tally.rowwise += matched

    def _select(self, block: RowBlock) -> tuple[Sequence[int], int]:
        """Positions of the block's rows that pass the fact predicate
        and hit every hash table — Figure 4's probe loop with early-out,
        one stage at a time — and how many rows were looked up one by
        one in a key index on the way.

        Only the first stage reads the whole block: the predicate's
        :meth:`~repro.core.expressions.Predicate.evaluate_mask`, or, with
        no fact predicate, the first table's
        :meth:`~repro.core.hashtable.DimensionHashTable.hit_mask`. Every
        later table in ``_probe_order`` tests only the selected keys
        (:meth:`~repro.core.hashtable.DimensionHashTable.select_hits`),
        so a row one table dropped is never looked up in the next. A
        predicate without a mask (a plain-list column) runs row by row
        just before the first table whose keys have no dense index.
        """
        columns = block.columns
        whole = selection = range(block.num_rows)
        rowwise = None  # the fact predicate, when it has no mask here
        if not self._pred_is_true:
            mask = self._fact_pred.evaluate_mask(columns, block.num_rows)
            if mask is None:
                rowwise = self._fact_pred
            else:
                selection = np.flatnonzero(mask)
        scalar_probed = 0
        for join_index in self._probe_order:
            if len(selection) == 0:
                break
            table = self.hash_tables[join_index]
            keys = columns[self._fk_names[join_index]]
            if table._dense_for(keys) is None:
                if rowwise is not None:
                    selection = rowwise.evaluate_block(columns, selection)
                    rowwise = None
                scalar_probed += len(selection)
                selection = table.select_hits(keys, selection)
            elif selection is whole:
                selection = np.flatnonzero(table.hit_mask(keys))
            else:
                selection = table.select_hits(keys, selection)
        if rowwise is not None:
            selection = rowwise.evaluate_block(columns, selection)
        return selection, scalar_probed

    def _emit_grouped(self, columns: dict, selection: Sequence[int],
                      collector: OutputCollector,
                      ) -> tuple[int, str | None]:
        """Emit one (group-key, partial aggregates) pair per distinct
        group among the survivors — Hadoop's combine, applied to each
        block — and return (pairs emitted, None); or emit nothing and
        return (0, the reason) when the block must take the
        per-survivor :meth:`_emit_block` instead.

        Group codes come from the data, never from Python values where
        the data has them: dictionary codes of a fact column, a table's
        per-entry aux codes, ``np.unique`` over an integer fact column;
        only a plain-list fact column goes through a value-to-code map.
        Each group's key is read at its first survivor, so it is the
        very value the per-survivor loop would emit first. Integer
        measures are reduced exactly in int64 (declined past
        :func:`~repro.core.expressions.int64_safe`); sums and counts then
        merge like any combiner's partials.
        """
        sel = as_index_array(selection)
        n = len(sel)
        measures: list[np.ndarray | None] = []
        keep = measures.append
        for function, vec_fn in zip(self._agg_functions,
                                    self._agg_vec_fns):
            if function == "count":
                keep(None)  # counted from group sizes
                continue
            out = vec_fn(columns, sel)
            if out is None:
                return 0, "non-vector measure"
            if not is_integral(out):
                return 0, "non-integer measure"
            bound = magnitude(out)
            if not int64_safe(bound * n if function == "sum" else bound):
                return 0, "int64 bound"
            keep(np.broadcast_to(np.asarray(out, dtype=np.int64), (n,)))

        tables = self.hash_tables
        fk_names = self._fk_names
        key_joins = {join for source, join, _ in self._group_plan
                     if source == "dim"}
        entries = {join: tables[join].entries_at(columns[fk_names[join]],
                                                 sel)
                   for join in key_joins}
        key_codes = [self._key_codes(plan, name, columns, sel, entries)
                     for plan, name in zip(self._group_plan,
                                           self.query.group_by)]
        composite = np.zeros(n, dtype=np.int64)
        span = 1
        for codes, cardinality, _ in key_codes:
            span *= cardinality
            if not int64_safe(span):
                return 0, "group-code overflow"
            composite *= cardinality
            composite += codes

        order = np.argsort(composite, kind="stable")
        starts = np.flatnonzero(np.diff(composite[order], prepend=-1))
        # Stable sort: a run's first element is the group's first
        # survivor, whose key the per-survivor loop would emit first.
        firsts = order[starts]
        sizes = np.diff(starts, append=n)
        reduced = [
            sizes if values is None
            else _REDUCE[function].reduceat(values[order], starts)
            for function, values in zip(self._agg_functions, measures)]
        groups = len(starts)
        group_values = (map(tuple, np.stack(reduced, axis=1).tolist())
                        if reduced else repeat((), groups))
        key_values = [values_at(firsts) for _, _, values_at in key_codes]
        group_keys = zip(*key_values) if key_values else repeat((), groups)
        collect = collector.collect
        for key, values in zip(group_keys, group_values):
            collect(key, values)
        return groups, None

    def _key_codes(self, plan: tuple[str, int, int], name: str,
                   columns: dict, sel: np.ndarray, entries: dict,
                   ) -> tuple[np.ndarray, int, Callable[[np.ndarray], list]]:
        """One group-by column over the survivors as (code per survivor,
        number of codes, survivor indexes -> their values)."""
        source, join_index, aux_index = plan
        if source == "fact":
            column = columns[name]
            if isinstance(column, DictionaryVector):
                return (column.codes[sel], len(column.dictionary),
                        lambda firsts: column.take(sel[firsts]))
            if (isinstance(column, NumericVector)
                    and column.data.dtype.kind in "iu"):
                distinct, codes = np.unique(column.data[sel],
                                            return_inverse=True)
                return (codes, len(distinct),
                        lambda firsts: column.take(sel[firsts]))
            values = gather_values(column, sel)
            codes, count = value_codes(values)
            return (codes, count,
                    lambda firsts: [values[i] for i in firsts.tolist()])
        found = entries[join_index]
        table = self.hash_tables[join_index]
        codes, cardinality = table.aux_codes(aux_index)
        return (codes[found], cardinality,
                lambda firsts: table.aux_values(found[firsts], aux_index))

    def _emit_block(self, block: RowBlock, selection: Sequence[int],
                    aux_by_join: Sequence[Sequence[tuple]],
                    collector: OutputCollector) -> None:
        """Materialize group keys and measures for surviving positions.

        Column-at-a-time: each group-by source and each measure is
        gathered for the whole survivor set up front (one buffer gather
        per column on typed vectors), leaving only tuple assembly in the
        per-row loop. Subclasses that emit something other than
        (group-key, aggregate contributions) — e.g. the multipass
        partial join — override this hook; the selection/probe kernels
        above are shared.
        """
        columns = block.columns
        group_by = self.query.group_by
        key_sources = [
            gather_values(columns[group_by[position]], selection)
            if source == "fact"
            else [aux[aux_index] for aux in aux_by_join[join_index]]
            for position, (source, join_index, aux_index)
            in enumerate(self._group_plan)]
        measure_columns = [
            self._measure_values(index, columns, selection)
            for index in range(len(self._agg_vec_fns))]
        collect = collector.collect
        for k in range(len(selection)):
            collect(tuple(col[k] for col in key_sources),
                    tuple(col[k] for col in measure_columns))

    def _measure_values(self, index: int, columns: dict,
                        selection: Sequence[int]) -> Sequence[Any]:
        """One aggregate's per-survivor contributions, vectorized when
        the expression supports it, row-wise otherwise.

        Vector results come back as numpy arrays and are converted with
        ``.tolist()`` so only Python scalars reach collectors (byte-
        identity with the row-wise path); broadcastable scalars (count's
        constant 1) are expanded without arithmetic.
        """
        out = self._agg_vec_fns[index](columns, selection)
        if out is None:
            fn = self._agg_fns[index]
            getter = _ColumnsRowGetter(columns)
            values: list[Any] = []
            append = values.append
            for i in selection:
                getter.row = i
                append(fn(getter))
            return values
        if isinstance(out, np.ndarray):
            return out.tolist()
        return [out] * len(selection)

    def close(self, collector: OutputCollector,
              context: TaskContext) -> None:
        if self._sanitize and self._closed:
            raise SanitizerError(
                "tally merge attempted after task close: per-thread "
                "tallies must be merged exactly once, at close")
        self._closed = True
        with self._lock:
            self._rows_probed += sum(t.probed for t in self._tallies)
            self._rows_matched += sum(t.matched for t in self._tallies)
            self._rows_scalar_probed += sum(
                t.scalar for t in self._tallies)
            self._rows_emitted_rowwise += sum(
                t.rowwise for t in self._tallies)
            self._tallies.clear()
        probe_rate = context.conf.get_float(KEY_PROBE_RATE, 762_000.0)
        context.charge(self._rows_probed
                       / (probe_rate * max(1, context.threads)))
        context.count(COUNTER_GROUP, "rows_probed", self._rows_probed)
        context.count(COUNTER_GROUP, "rows_matched", self._rows_matched)
        context.count(COUNTER_GROUP, "rows_scalar_probed",
                      self._rows_scalar_probed)
        context.count(COUNTER_GROUP, "rows_emitted_rowwise",
                      self._rows_emitted_rowwise)


#: Exact int64 reductions of one aggregate over sorted group runs.
_REDUCE = {"sum": np.add, "min": np.minimum, "max": np.maximum}


class StarJoinReducer(Reducer):
    """Figure 4's ``QReducer`` generalized to any aggregate list."""

    def __init__(self) -> None:
        self._aggregates = None

    def initialize(self, context: TaskContext) -> None:
        query, _, _ = load_query_config(context.conf)
        self._aggregates = query.aggregates

    def reduce(self, key: Any, values, collector: OutputCollector,
               context: TaskContext) -> None:
        if self._aggregates is None:
            self.initialize(context)
        merged: list[Any] | None = None
        for value in values:
            if merged is None:
                merged = list(value)
            else:
                merged = [agg.merge(m, v) for agg, m, v
                          in zip(self._aggregates, merged, value)]
        collector.collect(key, tuple(merged or ()))


class StarJoinCombiner(StarJoinReducer):
    """Map-side partial aggregation (paper 4.2: "combiners can be used")."""


class JoinThreadPool:
    """The process's join threads, kept between map tasks.

    Hadoop's JVM reuse (paper section 5, Figure 5) lets consecutive map
    tasks on a node keep what they set up; this is its thread
    counterpart. A join thread parks on its own inbox when its task is
    done, and the next task's :class:`MTMapRunner` hands it new work
    instead of starting a thread. The pool grows to the number of join
    threads in flight, so a task never waits for another task's
    threads; it never shrinks (parked threads are daemons).

    A child of ``os.fork`` inherits the parked threads' inboxes but not
    the threads, so :meth:`_forget` runs in every forked child and
    leaves it an empty pool.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Inboxes of parked threads; each thread parks on its own.
        self._idle: list[queue.SimpleQueue] = []
        self._started = 0

    def fan_out(self, body: Callable[[], None], count: int) -> None:
        """Run ``body`` on ``count`` join threads at once; return when
        every one has finished. ``body`` is expected to keep its own
        failures; anything that still escapes it is re-raised here."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(count):
            self._dispatch(body, done)
        escaped = [done.get() for _ in range(count)]
        for exc in escaped:
            if exc is not None:
                raise exc

    def _dispatch(self, body: Callable[[], None],
                  done: queue.SimpleQueue) -> None:
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
            number = self._started
            if inbox is None:
                self._started += 1
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._serve, args=(inbox,),
                             name=f"join-thread-{number}",
                             daemon=True).start()
        inbox.put((body, done))

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while True:
            body, done = inbox.get()
            escaped = None
            try:
                body()
            except BaseException as exc:  # handed to the waiting task
                escaped = exc
            # Park before reporting: once the task has heard from every
            # thread, all of them are idle again, so a task run after it
            # finds them and starts none.
            with self._lock:
                self._idle.append(inbox)
            done.put(escaped)

    def _forget(self) -> None:
        """Drop the parent's threads (runs in a fork child, which has
        one thread, so nothing can race it)."""
        self._lock = threading.Lock()
        self._idle = []
        self._started = 0


#: The one pool of this process.
JOIN_THREADS = JoinThreadPool()
os.register_at_fork(after_in_child=JOIN_THREADS._forget)


class MTMapRunner(MapRunner):
    """Figure 5: a multi-threaded map task sharing one set of hash tables.

    Unpacks the multi-split into per-thread readers; join threads run the
    probe pipeline concurrently against the shared read-only hash tables.
    The threads come from the process's :data:`JOIN_THREADS` pool; a task
    with one reader (or one granted thread) runs its ``join_thread`` on
    the calling thread, where a hand-off would only add latency.
    """

    def run(self, reader: RecordReader, mapper: Mapper,
            collector: OutputCollector, context: TaskContext) -> None:
        mapper.initialize(context)
        readers = reader.get_multiple_readers()
        num_threads = max(1, min(context.threads, len(readers)))
        pending: list[RecordReader] = list(readers)
        queue_lock = threading.Lock()
        errors: list[tuple[str, Exception]] = []
        tracer = context.tracer
        task_span = context.span

        def join_thread() -> None:
            # Worker threads have an empty thread-local span stack, so
            # the task span is passed as the explicit parent.
            thread_span = tracer.start("join_thread", CAT_THREAD,
                                       parent=task_span)
            cpu_start = time.thread_time()
            try:
                while True:
                    with queue_lock:
                        if not pending:
                            break
                        current = pending.pop(0)
                    for key, value in current:
                        mapper.map(key, value, collector, context)
                # Wall minus this CPU is the time the thread waited
                # (the GIL, mostly).
                thread_span.set("cpu_ms",
                                (time.thread_time() - cpu_start) * 1e3)
                thread_span.finish()
            except Exception as exc:  # collected; re-raised after join
                thread_span.finish(STATUS_FAILED)
                with queue_lock:
                    errors.append(
                        (threading.current_thread().name, exc))

        if num_threads == 1:
            join_thread()
        else:
            JOIN_THREADS.fan_out(join_thread, num_threads)
        if errors:
            raise collect_thread_failures(errors) from errors[0][1]
        mapper.close(collector, context)


def collect_thread_failures(
        errors: Sequence[tuple[str, Exception]]) -> MapReduceError:
    """Fold every join-thread failure into one raisable error.

    The first failure becomes the cause; the rest are attached as
    exception notes (PEP 678) and kept on ``thread_errors`` so callers
    can report *all* of them, not just ``errors[0]``.
    """
    names = ", ".join(name for name, _ in errors)
    primary = errors[0][1]
    failure = MapReduceError(
        f"{len(errors)} join thread(s) failed ({names}): {primary}")
    failure.thread_errors = tuple(exc for _, exc in errors)
    for name, exc in errors[1:]:
        failure.add_note(
            f"also failed in {name}: {type(exc).__name__}: {exc}")
    return failure
