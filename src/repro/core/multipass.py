"""Multi-pass star joins for memory-constrained nodes (paper 5.1,
"Discussion").

When the aggregate size of the dimension hash tables exceeds a node's
memory but each table fits by itself, Clydesdale can "reduce the memory
footprint by joining with a single hash table at a time. A subsequent
pass over the intermediate joined result can be made to join with the
remaining dimension tables." This module holds what is particular to
that strategy:

* :func:`plan_passes` bin-packs the query's joins into passes whose
  estimated hash-table footprints fit the per-node heap budget;
* :func:`pass_queries` cuts the query into one sub-query per pass — a
  non-final pass is a map-only job whose :class:`PartialJoinMapper`
  probes its subset of dimensions and writes the surviving,
  aux-augmented rows back to HDFS; the final pass is a normal
  Clydesdale aggregation job whose "fact table" is the last
  intermediate.

Planning the jobs (:func:`repro.core.planner.plan_join_passes`) and
running them (:meth:`repro.core.engine.ClydesdaleEngine.run`) is the
single-pass code: one pass is just the shortest pass list.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any

from repro.common.errors import PlanningError
from repro.common.keys import KEY_PASS_OUTPUT_SCHEMA
from repro.common.schema import Schema
from repro.core.expressions import TruePredicate
from repro.core.joinjob import StarJoinMapper
from repro.core.query import StarQuery
from repro.mapreduce.api import TaskContext
from repro.mapreduce.types import OutputCollector
from repro.ssb.loader import Catalog


def estimate_ht_bytes(query: StarQuery, catalog: Catalog,
                      bytes_per_entry: float) -> dict[str, float]:
    """Worst-case in-memory size per dimension hash table.

    Upper bound: every dimension row qualifies (predicates can only
    shrink the table; the planner must not rely on them).
    """
    return {join.dimension:
            catalog.meta(join.dimension).num_rows * bytes_per_entry
            for join in query.joins}


def plan_passes(query: StarQuery, catalog: Catalog, budget_bytes: float,
                bytes_per_entry: float) -> list[list[str]]:
    """Greedy first-fit partition of joins into memory-feasible passes.

    Join order is preserved (the paper's join order is the query's).
    A single dimension larger than the whole budget gets its own pass —
    and a warning-grade situation the engine surfaces (the paper would
    switch to a repartition join there).
    """
    if budget_bytes <= 0:
        raise PlanningError("heap budget must be positive")
    sizes = estimate_ht_bytes(query, catalog, bytes_per_entry)
    passes: list[list[str]] = []
    current: list[str] = []
    current_bytes = 0.0
    for join in query.joins:
        size = sizes[join.dimension]
        if current and current_bytes + size > budget_bytes:
            passes.append(current)
            current, current_bytes = [], 0.0
        current.append(join.dimension)
        current_bytes += size
    if current:
        passes.append(current)
    return passes


class PartialJoinMapper(StarJoinMapper):
    """Probes a *subset* of the star's dimensions and emits surviving
    rows augmented with those dimensions' aux columns (instead of
    aggregating)."""

    def __init__(self) -> None:
        super().__init__()
        self._output_names: tuple[str, ...] = ()

    def initialize(self, context: TaskContext) -> None:
        super().initialize(context)
        output_schema = Schema.from_dict(
            json.loads(context.conf.require(KEY_PASS_OUTPUT_SCHEMA)))
        self._output_names = output_schema.names

    def process_record(self, get, collector: OutputCollector) -> bool:  # analyze: allow-alloc (scalar API)
        aux_values = self._probe_row(get)
        if aux_values is None:
            return False
        flattened: dict[str, Any] = {}
        for table, aux in zip(self.hash_tables, aux_values):
            flattened.update(zip(table.aux_columns, aux))
        row = tuple(flattened[n] if n in flattened else get(n)
                    for n in self._output_names)
        collector.collect(None, row)
        return True

    def _emit_block(self, block, selection, aux_by_join,  # analyze: allow-alloc
                    collector: OutputCollector) -> None:
        """Vectorized-path hook: emit flattened rows, not aggregates.

        Allocates per *surviving* row only — materializing the join
        output is this stage's job, so the allocation is the payload.
        """
        columns = block.columns
        tables = self.hash_tables
        out_names = self._output_names
        collect = collector.collect
        for k, i in enumerate(selection):
            flattened: dict[str, Any] = {}
            for table, aux_list in zip(tables, aux_by_join):
                flattened.update(zip(table.aux_columns, aux_list[k]))
            row = tuple(flattened[n] if n in flattened else columns[n][i]
                        for n in out_names)
            collect(None, row)


def scratch_dir(query: StarQuery) -> str:
    """Where ``query``'s passes materialize their intermediates."""
    return f"/tmp/clydesdale/{query.name.replace('.', '_')}/multipass"


def pass_queries(query: StarQuery, passes: list[list[str]],
                 catalog: Catalog) -> list[tuple[StarQuery, Any]]:
    """The sub-query each pass runs, paired with the row table it
    writes for the next pass (``None`` for the last, which aggregates).

    Each sub-query joins its pass's dimensions against whatever the
    pass before carried forward: the foreign keys not yet joined, the
    measure inputs, and the group-by columns of dimensions already
    joined.
    """
    from repro.hive.ioformats import RowTableOutputFormat
    if any(j.snowflake for j in query.joins):
        raise PlanningError(
            "multi-pass execution does not support snowflake branches")
    if [d for group in passes for d in group] != \
            [j.dimension for j in query.joins]:
        raise PlanningError("passes must cover every join exactly once, "
                            "in join order")
    dim_schemas = {j.dimension: catalog.meta(j.dimension).schema
                   for j in query.joins}
    carried = catalog.meta(query.fact_table).schema
    steps: list[tuple[StarQuery, Any]] = []
    # A join-free query plans no passes; it still runs one job.
    for index, group in enumerate(passes or [[]], start=1):
        final = index >= len(passes)
        sub_query = replace(
            query,
            name=f"{query.name}#" + ("final" if final else f"pass{index}"),
            joins=[query.join_for(d) for d in group],
            # The fact predicate is applied exactly once, in pass 1.
            fact_predicate=(query.fact_predicate if index == 1
                            else TruePredicate()),
            # A materializing pass groups by only the columns its own
            # dimensions supply, so the mapper builds hash tables with
            # exactly those aux payloads.
            group_by=[c for c in query.group_by
                      if final or any(c in dim_schemas[d] for d in group)],
            order_by=list(query.order_by) if final else [],
            limit=query.limit if final else None)
        sink = None
        if not final:
            # Carry forward only what later passes still need (consumed
            # foreign keys are dropped), then append this pass's aux
            # columns.
            needed = set(query.group_by)
            needed.update(query.join_for(d).fact_fk
                          for later in passes[index:] for d in later)
            for agg in query.aggregates:
                needed |= agg.expr.columns()
            carried = Schema(
                [c for c in carried.columns if c.name in needed]
                + [dim_schemas[d].column(name) for d in group
                   for name in query.aux_columns(d, dim_schemas[d].names)])
            sink = RowTableOutputFormat(
                f"{scratch_dir(query)}/pass{index}", carried,
                f"{query.name}-pass{index}")
        steps.append((sub_query, sink))
    return steps
