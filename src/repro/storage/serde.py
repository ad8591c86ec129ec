"""Binary serializers for columns and rows.

Column encoding (used by CIF and RCFile):

* fixed-width types — ``u32 count`` then a packed little-endian array;
* strings — ``u32 count`` then, per value, ``u32 length`` + UTF-8 bytes.

Row encoding (used by the binary row format for dimension tables) packs
each row's values in schema order with the same primitives.
"""

from __future__ import annotations

import struct
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


def encode_column(dtype: DataType, values: Sequence[Any]) -> bytes:
    """Serialize one column of ``values``."""
    count = len(values)
    header = _U32.pack(count)
    if dtype in _PACK_CODES:
        try:
            array = np.asarray(values, dtype=_NP_DTYPES[dtype])
        except (ValueError, TypeError, OverflowError) as exc:
            raise StorageError(
                f"cannot encode column as {dtype.value}: {exc}") from exc
        if array.shape != (count,):
            raise StorageError(
                f"cannot encode column as {dtype.value}: ragged input")
        if dtype is not DataType.FLOAT64:
            # numpy silently wraps out-of-range ints on some platforms;
            # verify the round trip to keep struct-like strictness.
            if count and not all(int(a) == v
                                 for a, v in zip(array, values)):
                raise StorageError(
                    f"cannot encode column as {dtype.value}: value out "
                    f"of range")
        return header + array.tobytes()
    # strings
    parts = [header]
    for value in values:
        if not isinstance(value, str):
            raise StorageError(
                f"expected str for {dtype.value} column, got {value!r}")
        raw = value.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


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


def encode_rows(schema: Schema, rows: Sequence[Sequence[Any]]) -> bytes:
    """Serialize rows column-value by column-value in schema order."""
    parts = [_U32.pack(len(rows))]
    codes = [(_PACK_CODES.get(c.dtype), c.dtype) for c in schema.columns]
    for row in rows:
        if len(row) != len(schema):
            raise StorageError(
                f"row arity {len(row)} != schema arity {len(schema)}")
        for value, (code, dtype) in zip(row, codes):
            if code is not None:
                try:
                    parts.append(struct.pack(f"<{code}", value))
                except struct.error as exc:
                    raise StorageError(
                        f"bad value {value!r} for {dtype.value}") from exc
            else:
                raw = str(value).encode("utf-8")
                parts.append(_U32.pack(len(raw)))
                parts.append(raw)
    return b"".join(parts)


def decode_rows(schema: Schema, data: bytes) -> list[tuple]:
    """Deserialize rows produced by :func:`encode_rows`."""
    if len(data) < 4:
        raise StorageError("row data truncated (missing count header)")
    count = _U32.unpack_from(data, 0)[0]
    offset = 4
    rows: list[tuple] = []
    specs = [(_PACK_CODES.get(c.dtype), c.dtype) for c in schema.columns]
    for _ in range(count):
        values = []
        for code, dtype in specs:
            if code is not None:
                width = dtype.fixed_width
                if offset + width > len(data):
                    raise StorageError("row data truncated (fixed value)")
                values.append(
                    struct.unpack_from(f"<{code}", data, offset)[0])
                offset += width
            else:
                if offset + 4 > len(data):
                    raise StorageError("row data truncated (string length)")
                length = _U32.unpack_from(data, offset)[0]
                offset += 4
                if offset + length > len(data):
                    raise StorageError("row data truncated (string bytes)")
                values.append(data[offset:offset + length].decode("utf-8"))
                offset += length
        rows.append(tuple(values))
    return rows
