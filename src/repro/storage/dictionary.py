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

import itertools
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

#: numpy dtypes of the fixed code widths (little-endian).
_CODE_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _code_width(dict_size: int) -> int:
    if dict_size <= 0xFF:
        return 1
    if dict_size <= 0xFFFF:
        return 2
    return 4


def _code_index(values: Sequence[str]) -> dict[str, int]:
    """Each distinct value's code, in first-appearance order."""
    return dict(zip(dict.fromkeys(values), itertools.count()))


def _dictionary_size(values: Sequence[str], index: dict[str, int]) -> int:
    """Length of the dictionary payload, computed without building it."""
    return (9 + 4 * len(index) + serde.utf8_length(index)
            + len(values) * _code_width(len(index)))


def _pack_dictionary(values: Sequence[str],
                     index: dict[str, int]) -> bytes:
    """The dictionary payload of ``values`` (known to be strings) under
    their ``_code_index``: the codes pack with one numpy ``tobytes``."""
    width = _code_width(len(index))
    parts = [_U32.pack(len(values)), _U32.pack(len(index)), bytes([width])]
    for raw in map(str.encode, index):
        parts += (_U32.pack(len(raw)), raw)
    codes = np.fromiter(map(index.__getitem__, values),
                        dtype=_CODE_DTYPES[width], count=len(values))
    parts.append(codes.tobytes())
    return b"".join(parts)


def encode_dictionary(values: Sequence[str]) -> bytes:
    """Dictionary-encode a string column (without the marker byte)."""
    serde.check_strings(values, "dictionary encoding requires strings")
    return _pack_dictionary(values, _code_index(values))


def _parse_dictionary(data: bytes, base: int = 0,
                      ) -> tuple[int, list[str], int, int]:
    """Parse the header + entry table of a dictionary payload starting
    at ``base``. Returns (count, entries, code width, codes offset)."""
    if len(data) < base + 9:
        raise StorageError("dictionary column truncated (header)")
    count = _U32.unpack_from(data, base)[0]
    dict_size = _U32.unpack_from(data, base + 4)[0]
    width = data[base + 8]
    if width not in _CODE_DTYPES:
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

    For string columns with ``dictionary=True`` the encoder keeps the
    smaller representation — sizes are computed first, and only the
    winner (plain on a tie) is built; everything else is plain.
    """
    if not dictionary or dtype is not DataType.STRING or not values:
        return bytes([MARKER_PLAIN]) + serde.encode_column(dtype, values)
    serde.check_strings(values, f"expected str for {dtype.value} column")
    index = _code_index(values)
    if _dictionary_size(values, index) < serde.string_column_size(values):
        return bytes([MARKER_DICT]) + _pack_dictionary(values, index)
    return bytes([MARKER_PLAIN]) + serde.encode_string_column(values)


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
