"""Dictionary encoding for CIF string columns (paper section 8's
"advanced storage organization" direction).

Low-cardinality string columns (regions, nations, ship modes, brands)
dominate dimension bytes and several fact columns. Dictionary encoding
stores each distinct value once plus fixed-width codes:

    [marker 0x01][u32 count][u32 dict_size][u8 code_width]
    [dict entries: u32 len + utf8 ...][codes: count * code_width]

Plain columns carry marker ``0x00`` followed by the ordinary
:mod:`repro.storage.serde` encoding. The encoder picks whichever is
smaller, so high-cardinality columns automatically stay plain.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.common.types import DataType
from repro.storage import serde
from repro.storage.columnvector import (
    ColumnVector,
    DictionaryVector,
    NumericVector,
    StringDictionary,
)

MARKER_PLAIN = 0x00
MARKER_DICT = 0x01

_U32 = struct.Struct("<I")

_CODE_FORMATS = {1: "B", 2: "<H", 4: "<I"}

#: numpy dtypes matching the fixed code widths (little-endian).
_CODE_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _code_width(dict_size: int) -> int:
    if dict_size <= 0xFF:
        return 1
    if dict_size <= 0xFFFF:
        return 2
    return 4


def encode_dictionary(values: Sequence[str]) -> bytes:
    """Dictionary-encode a string column (without the marker byte)."""
    ordered: list[str] = []
    codes: dict[str, int] = {}
    for value in values:
        if not isinstance(value, str):
            raise StorageError(
                f"dictionary encoding requires strings, got {value!r}")
        if value not in codes:
            codes[value] = len(ordered)
            ordered.append(value)
    width = _code_width(len(ordered))
    parts = [_U32.pack(len(values)), _U32.pack(len(ordered)),
             bytes([width])]
    for entry in ordered:
        raw = entry.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    fmt = _CODE_FORMATS[width]
    packer = struct.Struct(fmt)
    parts.extend(packer.pack(codes[v]) for v in values)
    return b"".join(parts)


def _parse_dictionary(data: bytes, base: int = 0,
                      ) -> tuple[int, list[str], int, int]:
    """Parse the header + entry table of a dictionary payload starting
    at ``base``. Returns (count, entries, code width, codes offset)."""
    if len(data) < base + 9:
        raise StorageError("dictionary column truncated (header)")
    count = _U32.unpack_from(data, base)[0]
    dict_size = _U32.unpack_from(data, base + 4)[0]
    width = data[base + 8]
    if width not in _CODE_FORMATS:
        raise StorageError(f"bad dictionary code width {width}")
    offset = base + 9
    entries: list[str] = []
    for _ in range(dict_size):
        if offset + 4 > len(data):
            raise StorageError("dictionary column truncated (entry len)")
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        if offset + length > len(data):
            raise StorageError("dictionary column truncated (entry)")
        # str(), not .decode(): ``data`` may be a memoryview slice.
        entries.append(str(data[offset:offset + length], "utf-8"))
        offset += length
    if len(data) < offset + count * width:
        raise StorageError("dictionary column truncated (codes)")
    return count, entries, width, offset


def _codes_array(data: bytes, count: int, width: int,
                 offset: int) -> np.ndarray:
    """Zero-copy view over the fixed-width code section."""
    return np.frombuffer(data, dtype=_CODE_DTYPES[width], count=count,
                         offset=offset)


def decode_dictionary(data: bytes) -> list[str]:
    """Inverse of :func:`encode_dictionary`."""
    count, entries, width, offset = _parse_dictionary(data)
    codes = _codes_array(data, count, width, offset)
    if count and int(codes.max()) >= len(entries):
        raise StorageError(
            f"dictionary code {int(codes.max())} out of range")
    return [entries[code] for code in codes.tolist()]


def encode_cif_column(dtype: DataType, values: Sequence,
                      dictionary: bool = True) -> bytes:
    """Encode a CIF column file: marker byte + payload.

    For string columns with ``dictionary=True`` the encoder builds both
    representations and keeps the smaller one; everything else is plain.
    """
    plain = bytes([MARKER_PLAIN]) + serde.encode_column(dtype, values)
    if not dictionary or dtype is not DataType.STRING or not values:
        return plain
    encoded = bytes([MARKER_DICT]) + encode_dictionary(values)
    return encoded if len(encoded) < len(plain) else plain


def decode_cif_column(dtype: DataType, data: bytes) -> list:
    """Decode a CIF column file written by :func:`encode_cif_column`."""
    if not data:
        raise StorageError("empty CIF column file")
    marker, payload = data[0], data[1:]
    if marker == MARKER_PLAIN:
        return serde.decode_column(dtype, payload)
    if marker == MARKER_DICT:
        if dtype is not DataType.STRING:
            raise StorageError(
                f"dictionary marker on non-string column ({dtype.value})")
        return decode_dictionary(payload)
    raise StorageError(f"unknown CIF column marker 0x{marker:02x}")


def decode_cif_column_vector(dtype: DataType,
                             data: bytes) -> ColumnVector | list:
    """Decode a CIF column file into a typed buffer (encoded execution).

    Fixed-width columns become a :class:`NumericVector` viewing the file
    bytes in place; dictionary-encoded strings stay in code space as a
    :class:`DictionaryVector` (codes are the on-disk array, zero-copy).
    Plain-stored strings have no fixed-width representation and fall
    back to the ordinary list decode.
    """
    if not data:
        raise StorageError("empty CIF column file")
    marker = data[0]
    if marker == MARKER_PLAIN:
        if dtype in serde._NP_DTYPES:
            return NumericVector(
                serde.decode_column_array(dtype, data, offset=1))
        return serde.decode_column(dtype, data[1:])
    if marker == MARKER_DICT:
        if dtype is not DataType.STRING:
            raise StorageError(
                f"dictionary marker on non-string column ({dtype.value})")
        count, entries, width, offset = _parse_dictionary(data, base=1)
        codes = _codes_array(data, count, width, offset)
        if count and int(codes.max()) >= len(entries):
            raise StorageError(
                f"dictionary code {int(codes.max())} out of range")
        return DictionaryVector(codes, StringDictionary(entries))
    raise StorageError(f"unknown CIF column marker 0x{marker:02x}")


def is_dictionary_encoded(data: bytes) -> bool:
    """Whether a CIF column file on disk is dictionary-encoded."""
    return bool(data) and data[0] == MARKER_DICT
