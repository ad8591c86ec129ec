"""Columnar memory model v2: typed buffers, code-space predicates,
dense probes, and the B-CIF reader's column hand-off.

Three layers, mirroring the zero-copy handoff contract in DESIGN.md:

* vector units — sequence compatibility with the lists they replace,
  zero-copy decode, slicing as views, dictionary edge cases (absent
  literal short-circuit, code-width boundaries, all-plain fallback);
* kernel properties (hypothesis) — predicates and probes over typed
  buffers select exactly what the list/row-wise paths select;
* engine properties — random star queries return byte-identical rows
  from the block kernel over typed buffers and from record-at-a-time
  execution over decoded values, and agree with the Hive and reference
  backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.expressions import Between, Comparison, InList, TruePredicate
from repro.core.hashtable import DimensionHashTable
from repro.core.planner import ClydesdaleFeatures
from repro.core.query import StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.mapreduce.job import JobConf
from repro.serve.session import Session
from repro.storage import serde
from repro.storage.cif import (
    ColumnInputFormat,
    column_path,
    write_cif_table,
)
from repro.storage.columnvector import (
    ColumnVector,
    DictionaryVector,
    NumericVector,
    StringDictionary,
    as_index_array,
    ensure_vector,
    gather_values,
)
from repro.storage.dictionary import (
    decode_cif_column,
    decode_cif_column_vector,
    encode_cif_column,
    encode_dictionary,
)
from tests.test_property_random_queries import star_queries
from tests.test_property_vectorized import (
    column_blocks,
    predicates,
    python_types,
)

INT64 = DataType.INT64
STRING = DataType.STRING


# --------------------------------------------------------------------- #
# Vector units
# --------------------------------------------------------------------- #

class TestNumericVector:
    def test_sequence_compatibility(self):
        vec = NumericVector(np.asarray([3, 1, 4, 1, 5], dtype=np.int64))
        assert len(vec) == 5
        assert vec[2] == 4
        assert type(vec[2]) is int  # never a numpy scalar
        assert list(vec) == [3, 1, 4, 1, 5]
        assert vec.to_list() == [3, 1, 4, 1, 5]
        assert vec == [3, 1, 4, 1, 5]
        assert vec.take([0, 4]) == [3, 5]
        assert all(type(v) is int for v in vec.take([0, 4]))

    def test_slice_is_a_view(self):
        vec = NumericVector(np.arange(10, dtype=np.int64))
        part = vec[2:7]
        assert isinstance(part, NumericVector)
        assert part == [2, 3, 4, 5, 6]
        assert np.shares_memory(part.data, vec.data)

    def test_decode_is_zero_copy(self):
        payload = b"\x00" + serde.encode_column(INT64, [7, 8, 9])
        vec = decode_cif_column_vector(INT64, payload)
        assert isinstance(vec, NumericVector)
        assert vec.data.flags.writeable is False
        assert vec.to_list() == [7, 8, 9]

    def test_gather_stays_typed(self):
        vec = NumericVector(np.arange(6, dtype=np.int64))
        out = vec.gather([1, 3])
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [1, 3]


class TestDictionaryVector:
    def test_sequence_compatibility(self):
        values = ["b", "a", "b", "c", "a"]
        vec = ensure_vector(values, "dict")
        assert isinstance(vec, DictionaryVector)
        assert len(vec) == 5
        assert vec[3] == "c"
        assert list(vec) == values
        assert vec == values
        assert vec.take([1, 2]) == ["a", "b"]

    def test_slice_shares_dictionary(self):
        vec = ensure_vector(["x", "y", "x", "z"], "dict")
        part = vec[1:3]
        assert isinstance(part, DictionaryVector)
        assert part.dictionary is vec.dictionary
        assert np.shares_memory(part.codes, vec.codes)
        assert part == ["y", "x"]

    def test_decode_stays_in_code_space(self):
        values = ["red", "green", "red", "red", "green"] * 20
        payload = encode_cif_column(STRING, values)
        vec = decode_cif_column_vector(STRING, payload)
        assert isinstance(vec, DictionaryVector)
        assert vec.codes.flags.writeable is False  # zero-copy view
        assert vec.to_list() == decode_cif_column(STRING, payload)
        assert vec.to_list() == values

    def test_vectors_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(ensure_vector([1, 2], "<i8"))


class TestHelpers:
    def test_as_index_array(self):
        arr = np.asarray([1, 2], dtype=np.intp)
        assert as_index_array(arr) is arr
        assert as_index_array(range(3)).tolist() == [0, 1, 2]
        assert as_index_array([4, 0]).tolist() == [4, 0]

    def test_gather_values_both_representations(self):
        sel = [0, 2]
        assert gather_values([5, 6, 7], sel) == [5, 7]
        assert gather_values(ensure_vector([5, 6, 7], "<i8"), sel) == [5, 7]

    def test_ensure_vector_rejects_unparseable(self):
        with pytest.raises(StorageError):
            ensure_vector(["not", "numbers"], "<i8")


# --------------------------------------------------------------------- #
# Dictionary edge cases
# --------------------------------------------------------------------- #

class TestDictionaryEdgeCases:
    def test_absent_literal_short_circuits_equality(self):
        vec = ensure_vector(["a", "b", "a"], "dict")
        assert vec.dictionary.code_of("zzz") is None
        eq = Comparison("c", "=", "zzz")
        mask = eq.evaluate_mask({"c": vec}, len(vec))
        assert mask is not None and not mask.any()
        assert list(eq.evaluate_block({"c": vec}, range(len(vec)))) == []
        ne = Comparison("c", "!=", "zzz")
        mask = ne.evaluate_mask({"c": vec}, len(vec))
        assert mask is not None and mask.all()

    def test_predicate_mask_memoized_by_content(self):
        dictionary = StringDictionary(["a", "b", "c"])
        first = Between("c", "a", "b")
        second = Between("c", "a", "b")
        m1 = first.evaluate_mask({"c": DictionaryVector(
            np.zeros(1, dtype=np.uint32), dictionary)}, 1)
        m2 = second.evaluate_mask({"c": DictionaryVector(
            np.zeros(1, dtype=np.uint32), dictionary)}, 1)
        assert m1.tolist() == m2.tolist()
        assert len(dictionary._mask_cache) == 1  # equal predicates share

    @pytest.mark.parametrize("size,itemsize", [
        (0xFF, 1),       # largest u8 dictionary
        (0xFF + 1, 2),   # first u16 dictionary
        (0xFFFF, 2),     # largest u16 dictionary
        (0xFFFF + 1, 4), # first u32 dictionary
    ])
    def test_code_width_boundaries(self, size, itemsize):
        entries = [f"v{i:06d}" for i in range(size)]
        values = entries + entries[:3]  # every entry used, a few repeats
        payload = b"\x01" + encode_dictionary(values)
        vec = decode_cif_column_vector(STRING, payload)
        assert isinstance(vec, DictionaryVector)
        assert vec.codes.dtype.itemsize == itemsize
        assert vec.to_list() == decode_cif_column(STRING, payload)
        assert vec.take([0, size, size + 2]) == ["v000000", "v000000",
                                                 "v000002"]

    def test_high_cardinality_stays_plain(self):
        values = [f"unique-{i:08d}" for i in range(200)]
        payload = encode_cif_column(STRING, values)
        decoded = decode_cif_column_vector(STRING, payload)
        assert not isinstance(decoded, ColumnVector)  # plain list path
        assert decoded == values


# --------------------------------------------------------------------- #
# Kernel properties: typed buffers == lists
# --------------------------------------------------------------------- #

def _as_vectors(columns: dict) -> dict:
    return {name: ensure_vector(col, "<i8")
            for name, col in columns.items()}


class TestVectorKernelEquivalence:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=column_blocks(), predicate=predicates)
    def test_numeric_vectors_match_lists(self, data, predicate):
        columns, num_rows = data
        selection = list(range(num_rows))
        on_lists = list(predicate.evaluate_block(columns, selection))
        on_vectors = list(predicate.evaluate_block(
            _as_vectors(columns), selection))
        assert on_vectors == on_lists

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=column_blocks(), predicate=predicates)
    def test_evaluate_mask_agrees_with_block(self, data, predicate):
        columns, num_rows = data
        mask = predicate.evaluate_mask(_as_vectors(columns), num_rows)
        if mask is None:
            return  # predicate opted out; the row-wise leg covers it
        # Against the plain-list block, which takes the row-wise leg.
        selected = list(predicate.evaluate_block(
            columns, list(range(num_rows))))
        assert np.flatnonzero(mask).tolist() == selected

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(col=st.lists(st.sampled_from(
               ["ASIA", "EUROPE", "AMERICA", "AFRICA", "MOZART"]),
               max_size=60),
           predicate=st.one_of(
               st.builds(Comparison, st.just("c"),
                         st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                         st.sampled_from(["ASIA", "EUROPE", "absent"])),
               st.builds(Between, st.just("c"),
                         st.sampled_from(["AFRICA", "ASIA"]),
                         st.sampled_from(["EUROPE", "MOZART"])),
               st.builds(InList, st.just("c"),
                         st.lists(st.sampled_from(
                             ["ASIA", "AMERICA", "absent"]),
                             min_size=1, max_size=3))))
    def test_dictionary_vectors_match_lists(self, col, predicate):
        selection = list(range(len(col)))
        on_lists = list(predicate.evaluate_block({"c": col}, selection))
        on_vectors = list(predicate.evaluate_block(
            {"c": ensure_vector(col, "dict")}, selection))
        assert on_vectors == on_lists


class TestDenseProbeEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(st.integers(-20, 20), max_size=60),
           entries=st.dictionaries(st.integers(-20, 20),
                                   st.tuples(st.integers(), st.integers()),
                                   max_size=25))
    def test_vector_probe_matches_list_probe(self, keys, entries):
        table = DimensionHashTable.from_columns(
            "d", "fk", {"k": list(entries),
                        "x": [x for x, _ in entries.values()],
                        "y": [y for _, y in entries.values()]},
            len(entries), "k", TruePredicate(), ["x", "y"])
        selection = list(range(len(keys)))
        list_pos, list_aux = table.probe_block(keys, selection)
        vec = ensure_vector(keys, "<i8")
        vec_pos, vec_aux = table.probe_block(vec, selection)
        assert [int(i) for i in vec_pos] == list(list_pos)
        assert vec_aux == list_aux
        hits = table.hit_mask(vec)
        if hits is not None:
            assert np.flatnonzero(hits).tolist() == list(list_pos)
        assert table.gather_aux(vec, list(list_pos)) == list_aux


# --------------------------------------------------------------------- #
# The B-CIF reader's column hand-off
# --------------------------------------------------------------------- #

class TestEncodedReaderFlag:
    """B-CIF hands typed buffers; the vector decode equals
    ``decode_cif_column`` (the record reader's list decode)."""

    SCHEMA = Schema([("k", DataType.INT64), ("grp", DataType.STRING),
                     ("v", DataType.FLOAT64)])
    ROWS = [(i, f"g{i % 5}", i * 0.5) for i in range(300)]

    def _scan(self):
        fs = MiniDFS(num_nodes=3, placement=CoLocatingPlacementPolicy(),
                     block_size=2048)
        write_cif_table(fs, "t", "/t", self.SCHEMA, self.ROWS,
                        row_group_size=200)
        conf = JobConf("scan").set_input_paths("/t")
        conf.set("cif.block.iteration", True)
        fmt = ColumnInputFormat()
        split = fmt.get_splits(fs, conf)[0]
        _, block = fmt.get_record_reader(fs, split, conf).next()
        return fs, block

    def test_flag_on_hands_typed_buffers(self):
        _, block = self._scan()
        assert isinstance(block.column("k"), NumericVector)
        assert isinstance(block.column("v"), NumericVector)
        assert isinstance(block.column("grp"), DictionaryVector)

    def test_both_paths_decode_identically(self):
        fs, block = self._scan()
        for column in self.SCHEMA.columns:
            decoded = decode_cif_column(
                column.dtype,
                fs.read_file(column_path("/t", 0, column.name)))
            vector = block.column(column.name)
            assert vector == decoded[:len(vector)]
            assert ([type(v) for v in vector]
                    == [type(v) for v in decoded[:len(vector)]])


# --------------------------------------------------------------------- #
# Engine properties: block (typed buffers) == record (decoded values)
# == Hive == reference
# --------------------------------------------------------------------- #

def _without_limit(query: StarQuery) -> StarQuery:
    return StarQuery(
        name=query.name, fact_table=query.fact_table, joins=query.joins,
        fact_predicate=query.fact_predicate,
        aggregates=query.aggregates, group_by=query.group_by,
        order_by=query.order_by)


class TestEncodedExecutionEquivalence:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(query=star_queries())
    def test_random_queries_flag_on_off_agree(self, query, clydesdale,
                                              hive, reference):
        query = _without_limit(query)
        expected = sorted(reference.execute(query).rows)
        encoded = Session(clydesdale.engine,
                          features=ClydesdaleFeatures()).execute(query)
        decoded = Session(clydesdale.engine, features=ClydesdaleFeatures(
            block_iteration=False)).execute(query)
        # Byte-identical, not just set-equal: same rows, same order,
        # same (Python) value types.
        assert encoded.rows == decoded.rows
        assert python_types(encoded.rows) == python_types(decoded.rows)
        assert encoded.columns == decoded.columns
        assert sorted(encoded.rows) == expected
        assert sorted(hive.execute(query).rows) == expected

    def test_all_13_ssb_queries_flag_on_and_off(self, clydesdale,
                                                reference, queries):
        """The acceptance gate: every SSB query returns byte-identical
        rows from the block kernel over typed buffers, from
        record-at-a-time execution over decoded values, and from the
        reference."""
        encoded = Session(clydesdale.engine, features=ClydesdaleFeatures())
        decoded = Session(clydesdale.engine, features=ClydesdaleFeatures(
            block_iteration=False))
        for name, query in queries.items():
            expected = reference.execute(query).rows
            on = encoded.execute(query)
            off = decoded.execute(query)
            assert on.rows == off.rows == expected, name
            assert (python_types(on.rows) == python_types(off.rows)
                    == python_types(expected)), name
            assert on.columns == off.columns, name
