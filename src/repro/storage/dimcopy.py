"""The node-local dimension copy, stored by column (paper section 4.1).

The paper fixes where the copy lives — every node's local storage — not
its format. Laid out by column at load, a hash-table build reads the
primary key, the predicate columns and the auxiliary columns and skips
the rest by length::

    u32 rows, u32 columns, then per schema column:
    u32 length + the CIF column payload (``encode_cif_column``)
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Any, Collection, Sequence

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.storage.columnvector import ColumnVector
from repro.storage.dictionary import (decode_cif_column_vector,
                                      encode_cif_column)

_HEADER = struct.Struct("<II")
_U32 = struct.Struct("<I")


def encode_dimension_copy(schema: Schema,
                          rows: Sequence[Sequence[Any]]) -> bytes:
    """Serialize ``rows`` column by column in schema order. Accepts
    the rows the HDFS master copy's ``serde.encode_rows`` accepts — a
    non-``str`` value in a STRING column is stringified — so the two
    copies of a table never disagree."""
    width = len(schema)
    if any(len(row) != width for row in rows):
        raise StorageError(f"row arity != schema arity {width}")
    parts = [_HEADER.pack(len(rows), width)]
    for index, column in enumerate(schema.columns):
        values = list(map(itemgetter(index), rows))
        if column.dtype is DataType.STRING:
            values = list(map(str, values))
        payload = encode_cif_column(column.dtype, values)
        parts += (_U32.pack(len(payload)), payload)
    return b"".join(parts)


def decode_dimension_copy(schema: Schema, blob: bytes,
                          wanted: Collection[str],
                          ) -> tuple[int, dict[str, ColumnVector | list]]:
    """(row count, the ``wanted`` columns) of a dimension copy, as
    zero-copy typed buffers over ``blob`` (a plain-stored string column
    is a list). The frame — header, arity, every column's length — is
    checked for the whole blob; the payload of a column that was not
    asked for is skipped by length and never decoded."""
    view = memoryview(blob)
    if len(view) < _HEADER.size:
        raise StorageError("dimension copy truncated (header)")
    rows, width = _HEADER.unpack_from(view, 0)
    if width != len(schema):
        raise StorageError(f"dimension copy has {width} columns, "
                           f"schema has {len(schema)}")
    offset = _HEADER.size
    columns: dict[str, ColumnVector | list] = {}
    for column in schema.columns:
        start = offset + _U32.size
        if start > len(view):
            raise StorageError("dimension copy truncated (column length)")
        offset = start + _U32.unpack_from(view, offset)[0]
        if offset > len(view):
            raise StorageError("dimension copy truncated (column payload)")
        if column.name in wanted:
            values = decode_cif_column_vector(column.dtype,
                                              view[start:offset])
            if len(values) != rows:
                raise StorageError(
                    f"column {column.name!r} has {len(values)} rows, "
                    f"the copy's header says {rows}")
            columns[column.name] = values
    return rows, columns
