"""The column-at-a-time codecs against value-by-value oracles.

``encode_column``, ``encode_cif_column``, ``encode_dictionary`` and
``encode_rows`` check and pack a whole column (or a run of fixed-width
fields) at once. The oracles below are the value-by-value encoders they
replaced, kept verbatim: every input must give the same bytes, or the
same ``StorageError`` message.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.storage import dictionary, serde

_PACK_CODES = {DataType.INT32: "i", DataType.INT64: "q",
               DataType.FLOAT64: "d"}
_NP_DTYPES = {DataType.INT32: np.dtype("<i4"), DataType.INT64: np.dtype("<i8"),
              DataType.FLOAT64: np.dtype("<f8")}
_U32 = struct.Struct("<I")
_CODE_FORMATS = {1: "B", 2: "<H", 4: "<I"}

INT32 = (-(2**31), 2**31 - 1)
INT64 = (-(2**63), 2**63 - 1)


# -- the value-by-value oracles ----------------------------------------- #

def oracle_encode_column(dtype, values):
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
            if count and not all(int(a) == v
                                 for a, v in zip(array, values)):
                raise StorageError(
                    f"cannot encode column as {dtype.value}: value out "
                    f"of range")
        return header + array.tobytes()
    parts = [header]
    for value in values:
        if not isinstance(value, str):
            raise StorageError(
                f"expected str for {dtype.value} column, got {value!r}")
        raw = value.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def oracle_encode_dictionary(values):
    ordered = []
    codes = {}
    for value in values:
        if not isinstance(value, str):
            raise StorageError(
                f"dictionary encoding requires strings, got {value!r}")
        if value not in codes:
            codes[value] = len(ordered)
            ordered.append(value)
    width = (1 if len(ordered) <= 0xFF
             else 2 if len(ordered) <= 0xFFFF else 4)
    parts = [_U32.pack(len(values)), _U32.pack(len(ordered)),
             bytes([width])]
    for entry in ordered:
        raw = entry.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    packer = struct.Struct(_CODE_FORMATS[width])
    parts.extend(packer.pack(codes[v]) for v in values)
    return b"".join(parts)


def oracle_encode_cif_column(dtype, values, dictionary=True):
    plain = bytes([0x00]) + oracle_encode_column(dtype, values)
    if not dictionary or dtype is not DataType.STRING or not values:
        return plain
    encoded = bytes([0x01]) + oracle_encode_dictionary(values)
    return encoded if len(encoded) < len(plain) else plain


def oracle_encode_rows(schema, rows):
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


def outcome(fn, *args):
    """The bytes ``fn`` returns, or ``(type, message)`` of what it raises."""
    try:
        return fn(*args)
    except StorageError as exc:
        return (StorageError, str(exc))


# -- strategies ------------------------------------------------------------ #

def in_range(bounds):
    lo, hi = bounds
    return st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi]))


def ints(bounds):
    """In-range ints, the bounds themselves, and just past them."""
    lo, hi = bounds
    return st.one_of(in_range(bounds),
                     st.sampled_from([lo - 1, hi + 1, 2**64, -(2**64)]))


#: Empty, ASCII, non-ASCII and near-duplicate strings.
texts = st.one_of(st.sampled_from(["", "a", "AFRICA", "ünïcødé", "日本",
                                   "\U0001f600", "a\x00b"]),
                  st.text(max_size=6))
#: What ends up in a string column by mistake.
non_strings = st.one_of(st.integers(-5, 5), st.floats(allow_nan=False),
                        st.none(), st.binary(max_size=3),
                        st.booleans())
values_by_type = {
    DataType.INT32: st.lists(st.one_of(ints(INT32), st.floats(-3, 3),
                                       non_strings), max_size=8),
    DataType.INT64: st.lists(st.one_of(ints(INT64), st.booleans()),
                             max_size=8),
    DataType.FLOAT64: st.lists(st.one_of(st.floats(), st.integers(-9, 9)),
                               max_size=8),
    DataType.STRING: st.lists(st.one_of(texts, texts, texts, non_strings),
                              max_size=10),
}
columns = st.sampled_from(list(values_by_type)).flatmap(
    lambda dtype: st.tuples(st.just(dtype), values_by_type[dtype]))


class TestColumnOracles:
    @settings(max_examples=400, deadline=None)
    @given(columns)
    def test_encode_column(self, column):
        dtype, values = column
        assert (outcome(serde.encode_column, dtype, values)
                == outcome(oracle_encode_column, dtype, values))

    @settings(max_examples=400, deadline=None)
    @given(columns, st.booleans())
    def test_encode_cif_column(self, column, use_dictionary):
        dtype, values = column
        assert (outcome(dictionary.encode_cif_column, dtype, values,
                        use_dictionary)
                == outcome(oracle_encode_cif_column, dtype, values,
                           use_dictionary))

    @settings(max_examples=300, deadline=None)
    @given(values_by_type[DataType.STRING])
    def test_encode_dictionary(self, values):
        assert (outcome(dictionary.encode_dictionary, values)
                == outcome(oracle_encode_dictionary, values))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["x", "yy", "ab", "ü", "日"]),
                    min_size=256, max_size=700))
    def test_wide_dictionary_codes(self, values):
        # Over 255 distinct values the codes are two bytes wide.
        values = values + [f"v{i}" for i in range(300)]
        assert (dictionary.encode_dictionary(values)
                == oracle_encode_dictionary(values))
        assert (dictionary.encode_cif_column(DataType.STRING, values)
                == oracle_encode_cif_column(DataType.STRING, values))

    # Two equal values of UTF-8 length L: plain is 12 + 2L bytes, the
    # dictionary 15 + L, so L = 3 is the tie and plain wins it.
    @pytest.mark.parametrize("value,marker", [
        ("abcd", dictionary.MARKER_DICT),
        ("abc", dictionary.MARKER_PLAIN),
        ("üa", dictionary.MARKER_PLAIN),
        ("ab", dictionary.MARKER_PLAIN),
    ])
    def test_dictionary_versus_plain_tie(self, value, marker):
        values = [value, value]
        encoded = dictionary.encode_cif_column(DataType.STRING, values)
        assert encoded == oracle_encode_cif_column(DataType.STRING, values)
        assert encoded[0] == marker

    def test_string_column_size_is_the_encoding_length(self):
        for values in ([], [""], ["a", "ü", "日本", "\U0001f600"]):
            assert (serde.string_column_size(values)
                    == len(serde.encode_column(DataType.STRING, values)))


ROW_SCHEMAS = [
    Schema([("i", DataType.INT32), ("l", DataType.INT64),
            ("f", DataType.FLOAT64), ("s", DataType.STRING)]),
    Schema([("s", DataType.STRING), ("i", DataType.INT32),
            ("t", DataType.STRING), ("l", DataType.INT64),
            ("f", DataType.FLOAT64)]),
    Schema([("i", DataType.INT32), ("l", DataType.INT64)]),
    Schema([("s", DataType.STRING)]),
]

_FIELDS = {
    DataType.INT32: in_range(INT32),
    DataType.INT64: in_range(INT64),
    DataType.FLOAT64: st.floats(allow_nan=False),
    DataType.STRING: st.one_of(texts, st.integers(-9, 9)),
}


@st.composite
def schema_rows(draw, bad_values=False):
    schema = draw(st.sampled_from(ROW_SCHEMAS))
    def field(column):
        if not bad_values:
            return _FIELDS[column.dtype]
        bounds = {DataType.INT32: INT32, DataType.INT64: INT64}
        bad = (ints(bounds[column.dtype]) if column.dtype in bounds
               else non_strings)
        return st.one_of(_FIELDS[column.dtype], bad)

    row = st.tuples(*(field(c) for c in schema.columns))
    rows = draw(st.lists(row, max_size=6))
    if bad_values and rows and draw(st.booleans()):
        # A row of the wrong arity, somewhere in the batch.
        index = draw(st.integers(0, len(rows) - 1))
        cut = rows[index][:-1] if draw(st.booleans()) \
            else rows[index] + (0,)
        rows[index] = cut
    return schema, rows


class TestRowOracles:
    @settings(max_examples=400, deadline=None)
    @given(schema_rows(bad_values=True))
    def test_encode_rows(self, case):
        schema, rows = case
        assert (outcome(serde.encode_rows, schema, rows)
                == outcome(oracle_encode_rows, schema, rows))

    @settings(max_examples=300, deadline=None)
    @given(schema_rows())
    def test_decode_inverts_encode(self, case):
        schema, rows = case
        expected = [tuple(str(v) if c.dtype is DataType.STRING else v
                          for v, c in zip(row, schema.columns))
                    for row in rows]
        assert serde.decode_rows(
            schema, serde.encode_rows(schema, rows)) == expected

    @settings(max_examples=60, deadline=None)
    @given(schema_rows())
    def test_every_truncation_point_raises(self, case):
        schema, rows = case
        data = serde.encode_rows(schema, rows)
        for end in range(len(data)):
            with pytest.raises(StorageError):
                serde.decode_rows(schema, data[:end])

    def test_bad_value_names_the_value(self):
        schema = ROW_SCHEMAS[1]
        with pytest.raises(StorageError,
                           match=r"bad value 1\.5 for int64"):
            serde.encode_rows(schema, [("a", 7, "b", 1.5, 2.0)])
