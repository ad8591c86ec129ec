"""Planning a star query into Clydesdale MapReduce jobs.

The planner validates the query against the catalog, computes the exact
fact-table column set to push into CIF, and assembles the ``JobConf`` —
input format (MultiCIF or plain CIF), the MTMapRunner, the capacity
scheduler's one-task-per-node memory request, JVM reuse, and the
calibrated cost rates. Feature toggles reproduce the paper's section 6.5
ablation. A query is one job unless its hash tables outgrow a node
(section 5.1); then it is the same job once per pass, planned here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.common.errors import PlanningError
from repro.common.keys import KEY_PASS_OUTPUT_SCHEMA
from repro.common.units import MB
from repro.core.expressions import And, Between, Predicate, TruePredicate
from repro.core.hashtable import DimensionHashTable, decode_branch
from repro.core.joinjob import (
    KEY_BUILD_RATE,
    KEY_HT_BYTES_PER_ENTRY,
    KEY_PROBE_RATE,
    MTMapRunner,
    StarJoinCombiner,
    StarJoinMapper,
    StarJoinReducer,
    configure_query,
)
from repro.core.multipass import PartialJoinMapper, pass_queries
from repro.core.query import StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.scheduler import CapacityScheduler, FifoScheduler
from repro.sim.costs import CostModel
from repro.sim.hardware import ClusterSpec
from repro.ssb.loader import Catalog
from repro.storage.cif import KEY_BLOCK_ITERATION, ColumnInputFormat
from repro.storage.dimcopy import encode_dimension_copy
from repro.storage.multicif import MultiColumnInputFormat
from repro.storage.rowformat import RowInputFormat, read_row_table
from repro.storage.tablemeta import FORMAT_CIF
from repro.trace.tracer import NULL_SPAN, NullSpan, Span


@dataclass(frozen=True)
class ClydesdaleFeatures:
    """The three techniques of section 6.5, plus JVM reuse.

    Disabling ``multithreaded`` also disables JVM reuse, matching the
    paper's ablation where every single-threaded task rebuilt its own
    hash tables.
    """

    columnar: bool = True
    multithreaded: bool = True
    block_iteration: bool = True
    jvm_reuse: bool = True
    #: Row-group skipping from per-group min/max statistics.
    zone_maps: bool = True

    def describe(self) -> str:
        off = [name for name, on in (
            ("columnar", self.columnar),
            ("multithreaded", self.multithreaded),
            ("block-iteration", self.block_iteration),
            ("jvm-reuse", self.jvm_reuse),
            ("zone-maps", self.zone_maps)) if not on]
        return "all features on" if not off else f"disabled: {', '.join(off)}"


def validate_query(query: StarQuery, catalog: Catalog) -> None:
    """Raise :class:`PlanningError` unless the query matches the catalog."""
    if query.fact_table not in catalog:
        raise PlanningError(f"unknown fact table {query.fact_table!r}")
    fact_schema = catalog.meta(query.fact_table).schema

    def check_branch(join, parent_schema, parent_name):
        if join.dimension not in catalog:
            raise PlanningError(f"unknown dimension {join.dimension!r}")
        if join.fact_fk not in parent_schema:
            raise PlanningError(
                f"join key {join.fact_fk!r} not in {parent_name!r}")
        dim_schema = catalog.meta(join.dimension).schema
        if join.dim_pk not in dim_schema:
            raise PlanningError(
                f"primary key {join.dim_pk!r} not in {join.dimension!r}")
        for column in join.predicate.columns():
            if column not in dim_schema:
                raise PlanningError(
                    f"predicate column {column!r} not in "
                    f"{join.dimension!r}")
        for sub in join.snowflake:
            check_branch(sub, dim_schema, join.dimension)

    for join in query.joins:
        check_branch(join, fact_schema, query.fact_table)
    for column in query.fact_predicate.columns():
        if column not in fact_schema:
            raise PlanningError(
                f"fact predicate column {column!r} not in fact table")
    dim_names: set[str] = set()
    for join in query.joins:
        for table in join.all_tables():
            dim_names |= set(catalog.meta(table).schema.names)
    for column in query.group_by:
        if column not in fact_schema and column not in dim_names:
            raise PlanningError(
                f"group-by column {column!r} resolves to no table")
    for agg in query.aggregates:
        for column in agg.expr.columns():
            if column not in fact_schema:
                raise PlanningError(
                    f"aggregate column {column!r} must come from the fact "
                    f"table")


def fact_scan_columns(query: StarQuery, catalog: Catalog) -> list[str]:
    """Exact fact-table columns the scan needs (pushed into CIF)."""
    fact_schema = catalog.meta(query.fact_table).schema
    columns = query.fact_columns()
    for name in query.group_by:
        if name in fact_schema and name not in columns:
            columns.append(name)
    return columns


@dataclass
class _FkRanges:
    """One filesystem's plan-time pruning state: each dimension's
    columnar image — its master copy encoded as the node-local copy is
    (:mod:`repro.storage.dimcopy`), built on first use, keyed by table
    directory — and the FK range derived per distinct join. Decoded
    rows are never kept: the images are the whole footprint."""

    images: dict[str, bytes] = field(default_factory=dict)
    ranges: dict[tuple[str, str], Predicate | None] = field(
        default_factory=dict)


_ZONEMAP_PRED_CACHE: "WeakKeyDictionary[MiniDFS, _FkRanges]" = \
    WeakKeyDictionary()


def derive_zonemap_predicate(query: StarQuery, catalog: Catalog,
                             fs: MiniDFS, span: Span | NullSpan = NULL_SPAN,
                             ) -> Predicate | None:
    """The strongest predicate zone maps can prune row groups with.

    Combines the query's own fact predicate with *implied* FK-range
    predicates (a semi-join reduction): for each dimension join whose
    branch carries a predicate, filter the dimension's columnar image
    at plan time exactly as the hash-table build filters its
    node-local copy, and emit ``Between(fact_fk, min(keys),
    max(keys))`` over the qualifying primary keys — every matching fact
    row must carry one of them. The result is used only for its
    :meth:`~repro.core.expressions.Predicate.can_match` interval test
    (never evaluated per row), so a range that over-approximates the
    key set is safe. Returns ``None`` when nothing useful can be
    derived.

    Sets ``fk_ranges_derived`` (ranges computed here rather than found
    in the filesystem's cache) and ``dimension_images`` (master copies
    decoded into images here) on ``span``.
    """
    state = _ZONEMAP_PRED_CACHE.setdefault(fs, _FkRanges())
    parts: list[Predicate] = []
    if not isinstance(query.fact_predicate, TruePredicate):
        parts.append(query.fact_predicate)
    derived = images = 0
    for join in query.joins:
        if _branch_is_trivial(join):
            continue
        key = (catalog.meta(join.dimension).directory,
               json.dumps(join.to_dict(), sort_keys=True))
        if key not in state.ranges:
            state.ranges[key], built = _fk_range(join, catalog, fs,
                                                 state.images)
            derived += 1
            images += built
        if state.ranges[key] is not None:
            parts.append(state.ranges[key])
    span.set("fk_ranges_derived", derived)
    span.set("dimension_images", images)
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else And(parts)


def _branch_is_trivial(join) -> bool:
    """True when no predicate anywhere in the branch filters rows."""
    return (isinstance(join.predicate, TruePredicate)
            and all(_branch_is_trivial(sub) for sub in join.snowflake))


def _fk_range(join, catalog: Catalog, fs: MiniDFS,
              images: dict[str, bytes]) -> tuple[Predicate | None, int]:
    """(``join``'s FK range, images built for it): the branch's keys
    filtered from its tables' images (built from the master copies on
    first use) with the hash-table build's own filter."""
    schemas = {t: catalog.meta(t).schema for t in join.all_tables()}
    copies = []
    built = 0
    for table in join.all_tables():
        directory = catalog.meta(table).directory
        if directory not in images:
            images[directory] = encode_dimension_copy(
                schemas[table], read_row_table(fs, directory))
            built += 1
        copies.append(images[directory])
    decoded = decode_branch(join, schemas, copies, ())
    key_range = DimensionHashTable.from_branch(join, schemas, decoded,
                                               ()).key_range()
    # An empty qualifying set means the whole query is empty; Between
    # cannot express it, so derive nothing (pruning is best-effort).
    if key_range is None:
        return None, built
    return Between(join.fact_fk, *key_range), built


def plan_star_join(query: StarQuery, catalog: Catalog,
                   cluster: ClusterSpec, cost_model: CostModel,
                   features: ClydesdaleFeatures,
                   fs: MiniDFS | None = None,
                   ) -> tuple[JobConf, CollectingOutputFormat]:
    """Build the ready-to-run JobConf for a star query.

    ``fs`` (the filesystem holding the tables) enables zone-map planning:
    without it no pruning predicate can be derived, which only costs
    performance, never correctness.
    """
    (conf,), output = plan_join_passes(query, None, catalog, cluster,
                                       cost_model, features, fs=fs)
    return conf, output


def plan_join_passes(query: StarQuery, passes: list[list[str]] | None,
                     catalog: Catalog, cluster: ClusterSpec,
                     cost_model: CostModel, features: ClydesdaleFeatures,
                     fs: MiniDFS | None = None,
                     span: Span | NullSpan = NULL_SPAN,
                     ) -> tuple[list[JobConf], CollectingOutputFormat]:
    """One ready-to-run JobConf per join pass, in run order.

    ``passes=None`` is the single pass over every dimension — the query
    itself, snowflake branches included; a pass list (paper section
    5.1) splits it with :func:`~repro.core.multipass.pass_queries`.
    The first job scans the CIF fact table, every later one the row
    table the pass before it wrote; the last aggregates into the
    returned collector.  Every job gets the same execution shape.
    ``span`` (the engine's ``plan`` span) gets the zone-map facts of
    :func:`derive_zonemap_predicate`, 0 when none are derived.
    """
    span.set("fk_ranges_derived", 0)
    span.set("dimension_images", 0)
    validate_query(query, catalog)
    fact_meta = catalog.meta(query.fact_table)
    if fact_meta.format != FORMAT_CIF:
        raise PlanningError(
            f"Clydesdale expects the fact table in CIF format, found "
            f"{fact_meta.format!r}")
    steps = ([(query, None)] if passes is None
             else pass_queries(query, passes, catalog))
    input_dir, input_schema = fact_meta.directory, fact_meta.schema
    confs: list[JobConf] = []
    for sub_query, sink in steps:
        conf = JobConf(f"clydesdale:{sub_query.name}")
        conf.set_input_paths(input_dir)
        conf.set(KEY_BLOCK_ITERATION, features.block_iteration)

        if confs:
            conf.input_format = RowInputFormat()
        else:
            conf.input_format = (MultiColumnInputFormat()
                                 if features.multithreaded
                                 else ColumnInputFormat())
            # The scan serves the whole query: later passes still need
            # their foreign keys, and a row group no later join can
            # match is as dead in pass 1 as in a single pass.
            if features.columnar:
                ColumnInputFormat.set_projection(
                    conf, fact_scan_columns(query, catalog))
            # else: no projection -> CIF reads every column (section
            # 6.5's "turning off columnar storage").
            if features.zone_maps and fs is not None:
                pruner = derive_zonemap_predicate(query, catalog, fs,
                                                  span)
                if pruner is not None:
                    ColumnInputFormat.set_zonemap_filter(conf, pruner)

        if features.multithreaded:
            conf.map_runner_class = MTMapRunner
            conf.scheduler = CapacityScheduler()
            # Request (almost) the whole node so the capacity scheduler
            # admits one join task per node (paper section 5.2).
            conf.set_task_memory_mb(
                int(cluster.node.memory_bytes * 0.9 / MB))
            conf.enable_jvm_reuse(features.jvm_reuse)
        else:
            conf.scheduler = FifoScheduler()
            # Single-threaded tasks each build their own hash tables: no
            # JVM reuse, exactly the section 6.5 configuration.
            conf.enable_jvm_reuse(False)

        probe_rate = cost_model.clydesdale_rows_s_per_thread
        if not features.block_iteration:
            probe_rate /= cost_model.row_at_a_time_penalty
        conf.set(KEY_PROBE_RATE, probe_rate)
        conf.set(KEY_BUILD_RATE, cost_model.hash_build_rows_s)
        conf.set(KEY_HT_BYTES_PER_ENTRY,
                 cost_model.clydesdale_hash_bytes_per_entry)

        if sink is None:
            output = CollectingOutputFormat()
            conf.output_format = output
            conf.mapper_class = StarJoinMapper
            conf.reducer_class = StarJoinReducer
            conf.combiner_class = StarJoinCombiner
            conf.set_num_reduce_tasks(max(1, cluster.total_reduce_slots))
        else:
            conf.output_format = sink
            conf.mapper_class = PartialJoinMapper
            conf.set_num_reduce_tasks(0)
            conf.set(KEY_PASS_OUTPUT_SCHEMA,
                     json.dumps(sink.schema.to_dict()))

        configure_query(conf, sub_query, input_schema, {
            table: catalog.meta(table).schema
            for join in sub_query.joins for table in join.all_tables()})
        confs.append(conf)
        if sink is not None:
            input_dir, input_schema = sink.directory, sink.schema
    return confs, output
