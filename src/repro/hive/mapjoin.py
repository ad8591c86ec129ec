"""Hive's mapjoin (broadcast hash join) stage — paper section 6.1, Fig 6.

One dimension at a time:

1. the Hive master builds a hash table on the (predicate-filtered)
   dimension table, serializes and compresses it, and pushes it through
   the distributed cache;
2. a map-only job scans the probe side; **every map task** re-loads and
   deserializes the hash table at startup (Hive does not reuse JVMs), and
   every map *slot* holds its own copy in memory — the source of the
   paper's out-of-memory failures on cluster A;
3. matching rows, augmented with the dimension's auxiliary columns, are
   written back to HDFS as the next stage's input.
"""

from __future__ import annotations

import json
import pickle
from typing import Any

from repro.common.schema import Schema
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.api import Mapper, TaskContext
from repro.mapreduce.distcache import DistributedCache
from repro.mapreduce.types import OutputCollector
from repro.core.expressions import Predicate
from repro.trace.tracer import CAT_PHASE

from repro.common.keys import (
    COUNTER_GROUP_HIVE as COUNTER_GROUP,
    KEY_HIVE_CACHE_FILE as KEY_CACHE_FILE,
    KEY_HIVE_CACHE_KNEE as KEY_CACHE_KNEE,
    KEY_HIVE_HT_BYTES_PER_ENTRY as KEY_HT_BYTES_PER_ENTRY,
    KEY_HIVE_RELOAD_RATE as KEY_RELOAD_RATE,
    KEY_HIVE_ROWS_RATE as KEY_ROWS_RATE,
    KEY_HIVE_STAGE_FACT_PREDICATE as KEY_FACT_PREDICATE,
    KEY_HIVE_STAGE_FK as KEY_STAGE_FK,
    KEY_HIVE_STAGE_INPUT_SCHEMA as KEY_INPUT_SCHEMA,
    KEY_HIVE_STAGE_OUTPUT_SCHEMA as KEY_OUTPUT_SCHEMA,
)


def build_broadcast_table(fs: MiniDFS, dim_schema: Schema,
                          dim_rows: list[tuple], dim_pk: str,
                          predicate: Predicate, aux_columns: list[str],
                          hdfs_path: str) -> tuple[int, int]:
    """Master-side hash build + serialize + write to HDFS.

    Returns (entries, serialized_bytes). The broadcast payload is the
    pickled pk -> aux-tuple dict, standing in for Hive's compressed
    hashtable file.
    """
    pk_index = dim_schema.index_of(dim_pk)
    aux_indexes = [dim_schema.index_of(c) for c in aux_columns]
    pred_cols = {name: dim_schema.index_of(name)
                 for name in predicate.columns()}
    table: dict[Any, tuple] = {}
    for row in dim_rows:
        if pred_cols:
            get = lambda name, _row=row: _row[pred_cols[name]]
            if not predicate.evaluate(get):
                continue
        table[row[pk_index]] = tuple(row[i] for i in aux_indexes)
    payload = pickle.dumps({"fk_aux": table, "aux_columns": aux_columns},
                           protocol=pickle.HIGHEST_PROTOCOL)
    fs.write_file(hdfs_path, payload, overwrite=True)
    return len(table), len(payload)


class MapJoinMapper(Mapper):
    """Probe-side mapper of one mapjoin stage.

    ``initialize`` re-loads the broadcast hash table from the node-local
    distributed-cache copy (charged per task — Hive restarts a JVM per
    task, so nothing is shared or reused).
    """

    def __init__(self) -> None:
        self._table: dict[Any, tuple] = {}
        self._fk: str = ""
        self._fact_pred: Predicate | None = None
        self._output_names: tuple[str, ...] = ()
        self._input_names: tuple[str, ...] = ()
        self._rows_in = 0
        self._rows_out = 0
        self._probe_rate = 50_000.0

    def initialize(self, context: TaskContext) -> None:
        conf = context.conf
        self._fk = conf.require(KEY_STAGE_FK)
        cache_path = conf.require(KEY_CACHE_FILE)
        # The per-task hash-table reload is this stage's build phase.
        with context.tracer.span("build", CAT_PHASE) as build_span:
            local_name = DistributedCache.local_name(conf.name, cache_path)
            blob = context.read_node_local(local_name)
            payload = pickle.loads(blob)
            self._table = payload["fk_aux"]
            build_span.set("entries", len(self._table))
        aux_columns = payload["aux_columns"]

        input_schema = Schema.from_dict(
            json.loads(conf.require(KEY_INPUT_SCHEMA)))
        output_schema = Schema.from_dict(
            json.loads(conf.require(KEY_OUTPUT_SCHEMA)))
        self._input_names = input_schema.names
        self._output_names = output_schema.names
        expected_aux = self._output_names[len(self._input_names):]
        assert tuple(aux_columns) == tuple(expected_aux), \
            "stage output schema must be input schema + aux columns"

        raw_pred = conf.get(KEY_FACT_PREDICATE)
        if raw_pred:
            from repro.core.expressions import predicate_from_dict
            self._fact_pred = predicate_from_dict(json.loads(raw_pred))

        # Memory: this copy exists once per map slot on the node.
        per_entry = conf.get_float(KEY_HT_BYTES_PER_ENTRY, 1250.0)
        ht_bytes = len(self._table) * per_entry
        context.require_memory(ht_bytes)

        # Reload cost, paid by *every* task (no JVM reuse in Hive).
        reload_rate = conf.get_float(KEY_RELOAD_RATE, 100 * 1024 * 1024)
        context.charge(ht_bytes / reload_rate)

        # Probe rate degrades once the table outgrows the caches.
        base_rate = conf.get_float(KEY_ROWS_RATE, 50_000.0)
        knee = conf.get_float(KEY_CACHE_KNEE, 170 * 1024 * 1024)
        self._probe_rate = base_rate / (1.0 + ht_bytes / knee)
        context.count(COUNTER_GROUP, "ht_reloads")

    def map(self, key: Any, value: Any, collector: OutputCollector,
            context: TaskContext) -> None:
        record = value
        self._rows_in += 1
        if self._fact_pred is not None:
            if not self._fact_pred.evaluate(record.get):
                return
        aux = self._table.get(record.get(self._fk))
        if aux is None:
            return
        collector.collect(key, tuple(record.values) + aux)
        self._rows_out += 1

    def close(self, collector: OutputCollector,
              context: TaskContext) -> None:
        context.charge(self._rows_in / self._probe_rate)
        context.count(COUNTER_GROUP, "stage_rows_in", self._rows_in)
        context.count(COUNTER_GROUP, "stage_rows_out", self._rows_out)
        if context.span is not None:
            context.span.set("rows_in", self._rows_in)
            context.span.set("rows_out", self._rows_out)
