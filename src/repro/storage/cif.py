"""CIF — the ColumnInputFormat (paper section 4.1) and B-CIF (section 5.3).

The fact table is stored column-per-file inside per-row-group
directories::

    /tables/lineorder/rg-00000/lo_custkey.bin
    /tables/lineorder/rg-00000/lo_revenue.bin
    /tables/lineorder/rg-00001/lo_custkey.bin
    ...

Written under a :class:`~repro.hdfs.placement.CoLocatingPlacementPolicy`,
every column file of a row group lands on the same datanodes, so a map
task scheduled on one of them reads all its columns locally. Queries push
their column list into the format (``cif.columns``) and only those files
are read — unused columns cost zero I/O.

B-CIF layers *block iteration* on the same data: the record reader
returns its split's whole row group as one :class:`RowBlock` (a batch
of column vectors) instead of one row per call, amortizing per-record
framework overhead over the largest batch the reader already holds.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Iterator, Sequence

from repro.common.errors import StorageError
from repro.common.record import Record
from repro.common.schema import Schema
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.inputformat import InputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import InputSplit, RecordReader
from repro.storage.dictionary import (
    decode_cif_column,
    decode_cif_column_vector,
    encode_cif_column,
)
from repro.storage.tablemeta import FORMAT_CIF, TableMeta
from repro.trace.tracer import CAT_PHASE, tracer_for

# Configuration keys, re-exported from the central registry.
from repro.common.keys import (  # noqa: E402  (kept with the format docs)
    KEY_BLOCK_ITERATION,
    KEY_CIF_COLUMNS,
)

DEFAULT_ROW_GROUP_SIZE = 50_000


def row_group_dir(directory: str, group: int) -> str:
    return f"{directory}/rg-{group:05d}"


def column_path(directory: str, group: int, column: str) -> str:
    return f"{row_group_dir(directory, group)}/{column}.bin"


def write_cif_table(fs: MiniDFS, name: str, directory: str, schema: Schema,
                    rows: Sequence[Sequence], row_group_size: int =
                    DEFAULT_ROW_GROUP_SIZE,
                    dictionary: bool = True) -> TableMeta:
    """Write a table in CIF layout and persist its metadata.

    For the co-location guarantee, the filesystem should be configured
    with :class:`~repro.hdfs.placement.CoLocatingPlacementPolicy`; the
    format works (without the locality guarantee) under any policy.
    """
    if row_group_size <= 0:
        raise StorageError("row_group_size must be positive")
    groups: list[dict] = []
    for start in range(0, max(1, len(rows)), row_group_size):
        chunk = rows[start:start + row_group_size]
        group = start // row_group_size
        write_row_group(fs, directory, schema, group, chunk,
                        dictionary=dictionary)
        groups.append({"id": group, "rows": len(chunk)})
    meta = TableMeta(name=name, directory=directory, schema=schema,
                     format=FORMAT_CIF, num_rows=len(rows),
                     row_group_size=row_group_size,
                     extras={"num_groups": len(groups), "groups": groups,
                             "dictionary": dictionary})
    meta.save(fs)
    return meta


def write_row_group(fs: MiniDFS, directory: str, schema: Schema,
                    group: int, chunk: Sequence[Sequence],
                    dictionary: bool = True) -> None:
    """Write one row group's column files (used by writes and roll-in).

    String columns are dictionary-encoded when that is smaller (paper
    section 8's storage-organization direction); see
    :mod:`repro.storage.dictionary`. A row whose arity is not the
    schema's raises :class:`StorageError`, as the row format's writer
    does.
    """
    width = len(schema)
    if set(map(len, chunk)) - {width}:
        arity = next(len(row) for row in chunk if len(row) != width)
        raise StorageError(f"row arity {arity} != schema arity {width}")
    for col_index, column in enumerate(schema.columns):
        values = list(map(itemgetter(col_index), chunk))
        data = encode_cif_column(column.dtype, values,
                                 dictionary=dictionary)
        fs.write_file(column_path(directory, group, column.name), data,
                      overwrite=True)


def group_descriptors(meta: TableMeta) -> list[dict]:
    """The table's row groups as ``{"id", "rows"}`` descriptors.

    Tables written before roll-in support (or hand-built) fall back to
    uniform groups derived from ``row_group_size``.
    """
    groups = meta.extras.get("groups")
    if groups:
        return list(groups)
    out = []
    for group in range(meta.num_row_groups()):
        base = group * meta.row_group_size
        out.append({"id": group,
                    "rows": min(meta.row_group_size,
                                meta.num_rows - base)})
    return out


def anchor_hosts(fs: MiniDFS, directory: str, group: int,
                 columns: Sequence[str]) -> tuple[str, ...]:
    """The hosts of a row group's first located column file — where
    every column of the group lives under co-located placement."""
    for name in columns:
        locations = fs.block_locations(column_path(directory, group, name))
        if locations:
            return locations[0].hosts
    return ()


class RowBlock:
    """A batch of rows in columnar form — what B-CIF readers return.

    Column values are typed
    :class:`~repro.storage.columnvector.ColumnVector` buffers wherever
    the format has one (the row group's own zero-copy buffers) and
    plain lists otherwise (plain-stored strings, hand-built
    blocks); both are sequence-compatible.
    """

    __slots__ = ("schema", "base_row", "columns", "num_rows")

    def __init__(self, schema: Schema, base_row: int,
                 columns: dict[str, Sequence]):
        self.schema = schema
        self.base_row = base_row
        self.columns = columns
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged RowBlock: lengths {lengths}")
        self.num_rows = lengths.pop() if lengths else 0

    def column(self, name: str) -> Sequence:
        try:
            return self.columns[name]
        except KeyError as exc:
            raise StorageError(
                f"RowBlock has no column {name!r}; have "
                f"{sorted(self.columns)}") from exc

    def row(self, index: int) -> tuple:
        return tuple(self.columns[n][index] for n in self.schema.names)

    def iter_rows(self) -> Iterator[tuple]:
        names = self.schema.names
        cols = [self.columns[n] for n in names]
        return zip(*cols) if cols else iter(())

    def __len__(self) -> int:
        return self.num_rows


class CIFSplit(InputSplit):
    """One fact-table row group (the CIF unit of scheduling), with the
    projected schema it was planned with: readers never reload .meta.

    ``decoded`` is what readers of this split decoded, per (column,
    decoder): the file bytes and the buffer decoded from them. A reader
    still reads every file, and reuses a buffer only when the read
    returned the very bytes object it was decoded from, so a split kept
    across runs (a prepared job) decodes each file once while every run
    still pays, and can fail, the read. Concurrent readers may both
    decode a file and both store it; either entry is correct."""

    def __init__(self, directory: str, group: int, base_row: int,
                 num_rows: int, schema: Schema, length: int,
                 hosts: tuple[str, ...]):
        self.directory = directory
        self.group = group
        self.base_row = base_row
        self.num_rows = num_rows
        self.schema = schema
        self.columns = schema.names
        self._length = length
        self._hosts = hosts
        self.decoded: dict[tuple, tuple[bytes, Sequence]] = {}

    @property
    def length(self) -> int:
        return self._length

    def locations(self) -> tuple[str, ...]:
        return self._hosts

    def __repr__(self) -> str:
        return (f"CIFSplit({self.directory} rg-{self.group:05d}, "
                f"{self.num_rows} rows, cols={list(self.columns)})")


class _CIFReaderBase(RecordReader):
    """Shared column-loading machinery for row and block readers.

    Each reader names, as ``_decode``, the (dtype, bytes) -> sequence
    decoder whose output its iteration reads best."""

    def __init__(self, fs: MiniDFS, split: CIFSplit,
                 reader_node: str | None):
        self._split = split
        self._schema = schema = split.schema
        self._bytes = 0
        decode = self._decode
        decoded = split.decoded
        self._columns: dict[str, Sequence] = {}
        for column in schema.columns:
            path = column_path(split.directory, split.group, column.name)
            data = fs.read_file(path, reader_node=reader_node)
            self._bytes += len(data)
            key = (column.name, decode)
            held = decoded.get(key)
            if held is None or held[0] is not data:
                held = decoded[key] = (data, decode(column.dtype, data))
            self._columns[column.name] = held[1]
        lengths = {len(v) for v in self._columns.values()}
        if len(lengths) > 1:
            raise StorageError(
                f"row group {split.group} has ragged columns: {lengths}")
        self._num_rows = lengths.pop() if lengths else 0

    @property
    def bytes_read(self) -> int:
        return self._bytes


class CIFRecordReader(_CIFReaderBase):
    """Row-at-a-time iteration: yields (global row id, Record).

    Every value is boxed into a :class:`Record` anyway, so columns are
    decoded to plain lists once per row group."""

    _decode = staticmethod(decode_cif_column)

    def __init__(self, fs: MiniDFS, split: CIFSplit,
                 reader_node: str | None):
        super().__init__(fs, split, reader_node)
        self._cursor = 0
        self._col_lists = [self._columns[n] for n in self._schema.names]

    def next(self):
        if self._cursor >= self._num_rows:
            return None
        i = self._cursor
        record = Record(self._schema,
                        tuple(col[i] for col in self._col_lists))
        self._cursor += 1
        return self._split.base_row + i, record


class BCIFRecordReader(_CIFReaderBase):
    """Block iteration: yields the split's row group as one
    (base row id, RowBlock), then ``None``.

    The block's columns are the reader's own decoded buffers (typed
    zero-copy :class:`~repro.storage.columnvector.ColumnVector` views of
    the file bytes; lists for plain-stored strings): the writer bounds a
    row group and the reader holds it whole, so nothing is sliced."""

    _decode = staticmethod(decode_cif_column_vector)

    def __init__(self, fs: MiniDFS, split: CIFSplit,
                 reader_node: str | None):
        super().__init__(fs, split, reader_node)
        self._pending = self._num_rows > 0

    def next(self):
        if not self._pending:
            return None
        self._pending = False
        base = self._split.base_row
        return base, RowBlock(self._schema, base, self._columns)


class ColumnInputFormat(InputFormat):
    """CIF: splits per row group, column projection pushed into I/O.

    Configuration keys:

    * ``cif.columns`` — JSON list of column names to read (default: all);
    * ``cif.block.iteration`` — return each row group as one
      :class:`RowBlock` (B-CIF).
    """

    def get_splits(self, fs: MiniDFS, conf: JobConf) -> list[InputSplit]:
        splits: list[InputSplit] = []
        for directory in conf.input_paths():
            meta = TableMeta.load(fs, directory)
            if meta.format != FORMAT_CIF:
                raise StorageError(
                    f"{directory} is {meta.format}, not CIF")
            schema = self._projection(conf, meta.schema)
            columns = schema.names
            base = 0
            for descriptor in group_descriptors(meta):
                group = descriptor["id"]
                num_rows = descriptor["rows"]
                length, hosts = self._extent(fs, directory, group,
                                             columns)
                splits.append(CIFSplit(
                    directory=directory, group=group, base_row=base,
                    num_rows=num_rows, schema=schema, length=length,
                    hosts=hosts))
                base += num_rows
        return splits

    @staticmethod
    def _extent(fs: MiniDFS, directory: str, group: int,
                columns: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
        """A row group's projected byte length and its anchor hosts
        (:func:`anchor_hosts`)."""
        length = sum(fs.file_length(column_path(directory, group, name))
                     for name in columns)
        return length, anchor_hosts(fs, directory, group, columns)

    def get_record_reader(self, fs: MiniDFS, split: InputSplit,
                          conf: JobConf,
                          reader_node: str | None = None) -> RecordReader:
        if not isinstance(split, CIFSplit):
            raise StorageError(
                f"ColumnInputFormat cannot read {type(split).__name__}")
        # The reader pulls its column bytes eagerly, so the span around
        # construction is the split's scan time.
        with tracer_for(conf).span("scan", CAT_PHASE) as span:
            reader_class = (BCIFRecordReader
                            if conf.get_bool(KEY_BLOCK_ITERATION, False)
                            else CIFRecordReader)
            reader: RecordReader = reader_class(fs, split, reader_node)
            span.set("split", split.group)
            span.set("bytes", reader.bytes_read)
            return reader

    @staticmethod
    def _projection(conf: JobConf, schema: Schema) -> Schema:
        """The pushed-down column list as a schema (validated early)."""
        raw = conf.get(KEY_CIF_COLUMNS)
        return schema if raw is None else schema.project(json.loads(raw))

    @staticmethod
    def set_projection(conf: JobConf, columns: Sequence[str]) -> None:
        """Push the query's column list into the format (paper 4.2)."""
        conf.set(KEY_CIF_COLUMNS, json.dumps(list(columns)))

