"""Hive's repartition (common) join stage — paper section 6.1.

Both sides of the join are read by mappers that tag each record with its
table of origin and emit it keyed by the join column. The shuffle brings
all records with one join key to the same reducer, which joins them —
robust for any table sizes, but the whole fact side crosses the network
and gets sorted every stage.
"""

from __future__ import annotations

import json
from typing import Any

from repro.common.errors import StorageError
from repro.core.expressions import Predicate, predicate_from_dict
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.api import Mapper, Reducer, TaskContext
from repro.mapreduce.inputformat import InputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import InputSplit, OutputCollector, RecordReader

from repro.common.keys import (
    COUNTER_GROUP_HIVE as COUNTER_GROUP,
    KEY_HIVE_DIM_AUX as KEY_DIM_AUX,
    KEY_HIVE_DIM_PK as KEY_DIM_PK,
    KEY_HIVE_DIM_PREDICATE as KEY_DIM_PREDICATE,
    KEY_HIVE_FACT_PREDICATE as KEY_FACT_PREDICATE,
    KEY_HIVE_FACT_SIDE_FK as KEY_FACT_SIDE_FK,
    KEY_HIVE_ROWS_RATE as KEY_ROWS_RATE,
)

TAG_FACT = 0
TAG_DIM = 1


class TaggedSplit(InputSplit):
    """Wraps a child split with the table tag its records carry."""

    def __init__(self, inner: InputSplit, tag: int):
        self.inner = inner
        self.tag = tag

    @property
    def length(self) -> int:
        return self.inner.length

    def locations(self) -> tuple[str, ...]:
        return self.inner.locations()


class _TaggedReader(RecordReader):
    def __init__(self, inner: RecordReader, tag: int):
        self._inner = inner
        self._tag = tag

    @property
    def bytes_read(self) -> int:
        return self._inner.bytes_read

    def next(self):
        pair = self._inner.next()
        if pair is None:
            return None
        key, value = pair
        return key, (self._tag, value)

    def close(self) -> None:
        self._inner.close()


class TaggedUnionInputFormat(InputFormat):
    """Concatenates two inputs (fact side + dimension side) with tags."""

    def __init__(self, fact_format: InputFormat, fact_paths: list[str],
                 dim_format: InputFormat, dim_paths: list[str],
                 fact_overrides: dict | None = None,
                 dim_overrides: dict | None = None):
        self._fact_format = fact_format
        self._fact_paths = fact_paths
        self._dim_format = dim_format
        self._dim_paths = dim_paths
        self._fact_overrides = fact_overrides or {}
        self._dim_overrides = dim_overrides or {}

    def _sub_conf(self, conf: JobConf, paths: list[str],
                  overrides: dict) -> JobConf:
        sub = JobConf(conf.name)
        sub.update(conf)
        sub.set_input_paths(paths)
        for key, value in overrides.items():
            sub.set(key, value)
        return sub

    def get_splits(self, fs: MiniDFS, conf: JobConf) -> list[InputSplit]:
        fact_conf = self._sub_conf(conf, self._fact_paths,
                                   self._fact_overrides)
        dim_conf = self._sub_conf(conf, self._dim_paths,
                                  self._dim_overrides)
        splits: list[InputSplit] = [
            TaggedSplit(s, TAG_FACT)
            for s in self._fact_format.get_splits(fs, fact_conf)]
        splits.extend(TaggedSplit(s, TAG_DIM)
                      for s in self._dim_format.get_splits(fs, dim_conf))
        return splits

    def get_record_reader(self, fs: MiniDFS, split: InputSplit,
                          conf: JobConf,
                          reader_node: str | None = None) -> RecordReader:
        if not isinstance(split, TaggedSplit):
            raise StorageError("TaggedUnionInputFormat needs TaggedSplit")
        if split.tag == TAG_FACT:
            fmt, paths, overrides = (self._fact_format, self._fact_paths,
                                     self._fact_overrides)
        else:
            fmt, paths, overrides = (self._dim_format, self._dim_paths,
                                     self._dim_overrides)
        sub = self._sub_conf(conf, paths, overrides)
        inner = fmt.get_record_reader(fs, split.inner, sub, reader_node)
        return _TaggedReader(inner, split.tag)


class RepartitionMapper(Mapper):
    """Tags records and keys them by the join column (sort-merge map)."""

    def __init__(self) -> None:
        self._fk = ""
        self._dim_pk = ""
        self._dim_pred: Predicate | None = None
        self._fact_pred: Predicate | None = None
        self._aux: list[str] = []
        self._rows = 0
        self._rate = 50_000.0

    def initialize(self, context: TaskContext) -> None:
        conf = context.conf
        self._fk = conf.require(KEY_FACT_SIDE_FK)
        self._dim_pk = conf.require(KEY_DIM_PK)
        raw = conf.get(KEY_DIM_PREDICATE)
        self._dim_pred = (predicate_from_dict(json.loads(raw))
                          if raw else None)
        raw = conf.get(KEY_FACT_PREDICATE)
        self._fact_pred = (predicate_from_dict(json.loads(raw))
                           if raw else None)
        self._aux = json.loads(conf.require(KEY_DIM_AUX))
        self._rate = conf.get_float(KEY_ROWS_RATE, 50_000.0)

    def map(self, key: Any, value: Any, collector: OutputCollector,
            context: TaskContext) -> None:
        tag, record = value
        self._rows += 1
        if tag == TAG_FACT:
            if self._fact_pred is not None \
                    and not self._fact_pred.evaluate(record.get):
                return
            collector.collect(record.get(self._fk),
                              (TAG_FACT, tuple(record.values)))
        else:
            if self._dim_pred is not None \
                    and not self._dim_pred.evaluate(record.get):
                return
            aux = tuple(record.get(c) for c in self._aux)
            collector.collect(record.get(self._dim_pk), (TAG_DIM, aux))

    def close(self, collector: OutputCollector,
              context: TaskContext) -> None:
        context.charge(self._rows / self._rate)
        context.count(COUNTER_GROUP, "stage_rows_in", self._rows)
        if context.span is not None:
            context.span.set("rows_in", self._rows)


class RepartitionReducer(Reducer):
    """Joins the co-grouped records of one key (dimension rows first)."""

    def reduce(self, key: Any, values, collector: OutputCollector,
               context: TaskContext) -> None:
        dim_aux: tuple | None = None
        fact_rows: list[tuple] = []
        for tag, payload in values:
            if tag == TAG_DIM:
                dim_aux = payload  # primary key: at most one survives
            else:
                fact_rows.append(payload)
        if dim_aux is None:
            return
        for fact in fact_rows:
            collector.collect(key, fact + dim_aux)
        context.count(COUNTER_GROUP, "stage_rows_out", len(fact_rows))
