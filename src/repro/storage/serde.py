"""Binary serializers for columns and rows.

Column encoding (used by CIF and RCFile):

* fixed-width types — ``u32 count`` then a packed little-endian array;
* strings — ``u32 count`` then, per value, ``u32 length`` + UTF-8 bytes.

Row encoding (used by the binary row format for dimension tables) packs
each row's values in schema order with the same primitives.

The codecs work a column, or a run of fixed-width fields, at a time: a
column's types are checked in one scan and its ints round-trip in one
comparison, and a row's consecutive fixed-width fields pack and unpack
through one precompiled ``struct.Struct``. Output bytes and errors are
those of value-by-value coding.
"""

from __future__ import annotations

import struct
from itertools import chain, groupby
from typing import Any, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType

_PACK_CODES = {
    DataType.INT32: "i",
    DataType.INT64: "q",
    DataType.FLOAT64: "d",
}

#: numpy dtypes for the fixed-width column fast path (little-endian).
_NP_DTYPES = {
    DataType.INT32: np.dtype("<i4"),
    DataType.INT64: np.dtype("<i8"),
    DataType.FLOAT64: np.dtype("<f8"),
}

_U32 = struct.Struct("<I")


def check_strings(values: Sequence[Any], what: str) -> None:
    """Raise ``StorageError(f"{what}, got {value!r}")`` for the first
    value of ``values`` that is not a ``str``: one scan of the value
    types, and a value-by-value search only when that scan finds one."""
    if set(map(type, values)) <= {str}:
        return
    for value in values:
        if not isinstance(value, str):
            raise StorageError(f"{what}, got {value!r}")


def utf8_length(values: Sequence[str]) -> int:
    """Total UTF-8 byte length of ``values`` — one encode of their
    concatenation, none at all when it is ASCII."""
    joined = "".join(values)
    return len(joined) if joined.isascii() else len(joined.encode("utf-8"))


def string_column_size(values: Sequence[str]) -> int:
    """Length of :func:`encode_column`'s output for a string column,
    computed without building it."""
    return _U32.size * (1 + len(values)) + utf8_length(values)


def encode_string_column(values: Sequence[str]) -> bytes:
    """:func:`encode_column` of a string column whose values are known
    to be ``str`` (:func:`check_strings`)."""
    raws = list(map(str.encode, values))
    return _U32.pack(len(raws)) + b"".join(
        chain.from_iterable(zip(map(_U32.pack, map(len, raws)), raws)))


def encode_column(dtype: DataType, values: Sequence[Any]) -> bytes:
    """Serialize one column of ``values``."""
    if dtype not in _PACK_CODES:
        check_strings(values, f"expected str for {dtype.value} column")
        return encode_string_column(values)
    count = len(values)
    try:
        array = np.asarray(values, dtype=_NP_DTYPES[dtype])
    except (ValueError, TypeError, OverflowError) as exc:
        raise StorageError(
            f"cannot encode column as {dtype.value}: {exc}") from exc
    if array.shape != (count,):
        raise StorageError(
            f"cannot encode column as {dtype.value}: ragged input")
    # numpy silently wraps (or truncates) some ints on some platforms;
    # one round-trip comparison keeps struct-like strictness.
    if dtype is not DataType.FLOAT64 and array.tolist() != list(values):
        raise StorageError(
            f"cannot encode column as {dtype.value}: value out of range")
    return _U32.pack(count) + array.tobytes()


def decode_column_array(dtype: DataType, data: bytes,
                        offset: int = 0) -> np.ndarray:
    """Zero-copy numpy view over a fixed-width column's packed payload.

    ``offset`` points at the ``u32 count`` header inside ``data``. The
    returned array aliases the (immutable) bytes, so it is read-only —
    the buffer contract of :class:`repro.storage.columnvector`.
    """
    if dtype not in _NP_DTYPES:
        raise StorageError(
            f"{dtype.value} is not a fixed-width column type")
    if len(data) < offset + 4:
        raise StorageError("column data truncated (missing count header)")
    count = _U32.unpack_from(data, offset)[0]
    width = dtype.fixed_width
    expected = offset + 4 + count * width
    if len(data) < expected:
        raise StorageError(
            f"column data truncated: want {expected} bytes, "
            f"have {len(data)}")
    return np.frombuffer(data, dtype=_NP_DTYPES[dtype], count=count,
                         offset=offset + 4)


def decode_column(dtype: DataType, data: bytes) -> list:
    """Deserialize a column produced by :func:`encode_column`."""
    if len(data) < 4:
        raise StorageError("column data truncated (missing count header)")
    count = _U32.unpack_from(data, 0)[0]
    if dtype in _PACK_CODES:
        # numpy bulk-decodes the packed array far faster than struct;
        # .tolist() yields plain Python ints/floats for downstream code.
        return decode_column_array(dtype, data).tolist()
    values = []
    offset = 4
    for _ in range(count):
        if offset + 4 > len(data):
            raise StorageError("string column truncated (missing length)")
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        if offset + length > len(data):
            raise StorageError("string column truncated (missing payload)")
        # str(), not .decode(): ``data`` may be a memoryview slice.
        values.append(str(data[offset:offset + length], "utf-8"))
        offset += length
    return values


def _row_layout(schema: Schema,
                ) -> list[tuple[int, int, struct.Struct | None]]:
    """The schema as ``(start, stop, packer)`` segments in column order:
    one precompiled ``struct.Struct`` per run of consecutive fixed-width
    columns, ``None`` for each string column."""
    layout: list[tuple[int, int, struct.Struct | None]] = []
    start = 0
    for fixed, run in groupby(schema.columns,
                              key=lambda c: c.dtype in _PACK_CODES):
        codes = [_PACK_CODES.get(c.dtype) for c in run]
        stop = start + len(codes)
        if fixed:
            layout.append((start, stop,
                           struct.Struct("<" + "".join(codes))))
        else:
            layout += [(i, i + 1, None) for i in range(start, stop)]
        start = stop
    return layout


def _bad_value(schema: Schema, values: Sequence[Any],
               start: int) -> StorageError:
    """The error for the first of ``values`` (columns ``start``...)
    that its column's fixed-width code cannot pack."""
    for value, column in zip(values, schema.columns[start:]):
        try:
            struct.pack(f"<{_PACK_CODES[column.dtype]}", value)
        except struct.error:
            return StorageError(
                f"bad value {value!r} for {column.dtype.value}")
    return StorageError(f"bad values {tuple(values)!r}")


def encode_rows(schema: Schema, rows: Sequence[Sequence[Any]]) -> bytes:
    """Serialize rows value by value in schema order: each run of
    fixed-width columns is one ``struct`` pack, each string a u32
    length plus its UTF-8 bytes (non-``str`` values are stringified)."""
    width = len(schema)
    layout = _row_layout(schema)
    parts = [_U32.pack(len(rows))]
    append = parts.append
    for row in rows:
        if len(row) != width:
            raise StorageError(
                f"row arity {len(row)} != schema arity {width}")
        for start, stop, packer in layout:
            if packer is None:
                raw = str(row[start]).encode("utf-8")
                append(_U32.pack(len(raw)))
                append(raw)
                continue
            values = row[start:stop]
            try:
                append(packer.pack(*values))
            except struct.error as exc:
                raise _bad_value(schema, values, start) from exc
    return b"".join(parts)


def decode_rows(schema: Schema, data: bytes) -> list[tuple]:
    """Deserialize rows produced by :func:`encode_rows`."""
    if len(data) < 4:
        raise StorageError("row data truncated (missing count header)")
    count = _U32.unpack_from(data, 0)[0]
    size = len(data)
    offset = 4
    layout = _row_layout(schema)
    rows: list[tuple] = []
    for _ in range(count):
        values: list = []
        for _start, _stop, packer in layout:
            if packer is not None:
                if offset + packer.size > size:
                    raise StorageError("row data truncated (fixed value)")
                values += packer.unpack_from(data, offset)
                offset += packer.size
                continue
            if offset + 4 > size:
                raise StorageError("row data truncated (string length)")
            length = _U32.unpack_from(data, offset)[0]
            offset += 4
            if offset + length > size:
                raise StorageError("row data truncated (string bytes)")
            values.append(data[offset:offset + length].decode("utf-8"))
            offset += length
        rows.append(tuple(values))
    return rows
