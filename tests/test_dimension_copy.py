"""The columnar node-local dimension copy and the build that reads it.

Three layers:

* the codec (``repro.storage.dimcopy``): round trip, column skipping,
  and every framing error as a ``StorageError``;
* the loader's one writer: ``refresh_dim_cache`` on any catalog, and the
  node-local copy accepting exactly the rows the HDFS master copy does;
* the build: a table built from the encoded copy equals the row-loop
  oracle kept *here* — keys, insertion order, aux tuples, Python value
  types, stats, dense-view declines and duplicate-key errors.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.sanitizer import freeze_table
from repro.common.errors import QueryError, StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import (
    And,
    Between,
    Col,
    Comparison,
    InList,
    Or,
    TruePredicate,
)
from repro.core.hashtable import DimensionHashTable, HashTableStats
from repro.core.joinjob import StarJoinMapper, configure_query
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.mapreduce.api import TaskContext
from repro.mapreduce.job import JobConf
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.loader import (
    Catalog,
    dim_cache_name,
    refresh_dim_cache,
    write_dim_cache,
)
from repro.storage.cif import write_cif_table
from repro.storage.columnvector import DictionaryVector, NumericVector
from repro.storage.dimcopy import (
    decode_dimension_copy,
    encode_dimension_copy,
)
from repro.storage.rowformat import write_row_table

SCHEMA = Schema([("k", DataType.INT32), ("big", DataType.INT64),
                 ("x", DataType.FLOAT64), ("grp", DataType.STRING),
                 ("name", DataType.STRING)])
ROWS = [(i, i * 10**10, i / 4, f"g{i % 3}", f"name-{i}")
        for i in range(40)]


def _rows_of(schema, blob):
    count, columns = decode_dimension_copy(schema, blob, schema.names)
    rows = list(zip(*(columns[name] for name in schema.names)))
    assert len(rows) == count
    return rows


# --------------------------------------------------------------------- #
# The codec
# --------------------------------------------------------------------- #

class TestCodec:
    def test_round_trip_values_and_types(self):
        rows = _rows_of(SCHEMA, encode_dimension_copy(SCHEMA, ROWS))
        assert rows == ROWS
        assert [tuple(map(type, row)) for row in rows] == \
            [tuple(map(type, row)) for row in ROWS]

    def test_empty_dimension(self):
        blob = encode_dimension_copy(SCHEMA, [])
        assert decode_dimension_copy(SCHEMA, blob, ["k", "name"]) == \
            (0, {"k": [], "name": []})

    def test_returns_only_the_wanted_columns_as_typed_buffers(self):
        blob = encode_dimension_copy(SCHEMA, ROWS)
        count, columns = decode_dimension_copy(SCHEMA, blob,
                                               {"k", "grp", "name"})
        assert count == len(ROWS)
        assert sorted(columns) == ["grp", "k", "name"]
        assert isinstance(columns["k"], NumericVector)
        assert not columns["k"].data.flags.writeable  # a view of blob
        # Low cardinality: dictionary codes. All distinct: the
        # dictionary is not smaller, so the column is stored plain.
        assert isinstance(columns["grp"], DictionaryVector)
        assert isinstance(columns["name"], list)

    def test_unwanted_columns_are_skipped_not_decoded(self):
        """The choice: the *frame* is checked for the whole blob, a
        column's *payload* only when that column is read — so a corrupt
        unwanted column does not fail a read that skips it."""
        blob = bytearray(encode_dimension_copy(SCHEMA, ROWS))
        # Column 0's payload starts after the 8-byte header and its
        # own 4-byte length; 0x7f is no CIF column marker.
        blob[12] = 0x7F
        count, columns = decode_dimension_copy(SCHEMA, bytes(blob),
                                               ["big", "grp"])
        assert count == len(ROWS)
        assert columns["big"] == [row[1] for row in ROWS]
        with pytest.raises(StorageError, match="marker"):
            decode_dimension_copy(SCHEMA, bytes(blob), ["k"])

    @pytest.mark.parametrize("wanted", [SCHEMA.names, ("k",), ()])
    def test_every_truncation_point_raises(self, wanted):
        blob = encode_dimension_copy(SCHEMA, ROWS[:5])
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                decode_dimension_copy(SCHEMA, blob[:cut], wanted)

    def test_arity_mismatch_raises(self):
        blob = encode_dimension_copy(SCHEMA, ROWS)
        narrower = SCHEMA.project(["k", "big"])
        with pytest.raises(StorageError, match="columns"):
            decode_dimension_copy(narrower, blob, ["k"])
        with pytest.raises(StorageError, match="arity"):
            encode_dimension_copy(SCHEMA, [(1, 2, 3.0, "short")])

    def test_column_row_count_mismatch_raises(self):
        blob = bytearray(encode_dimension_copy(SCHEMA, ROWS))
        struct.pack_into("<I", blob, 0, len(ROWS) + 1)
        with pytest.raises(StorageError, match="rows"):
            decode_dimension_copy(SCHEMA, bytes(blob), ["k"])

    def test_bad_value_raises_storage_error(self):
        with pytest.raises(StorageError):
            encode_dimension_copy(SCHEMA, [("x", 1, 1.0, "g", "n")])


# --------------------------------------------------------------------- #
# The loader's one writer, on a hand-loaded star
# --------------------------------------------------------------------- #

FACT = Schema([("f_id", DataType.INT64), ("f_page", DataType.INT32),
               ("f_visitor", DataType.INT32), ("f_ms", DataType.INT64)])
PAGES = Schema([("p_id", DataType.INT32), ("p_section", DataType.STRING)])
VISITORS = Schema([("v_id", DataType.INT32), ("v_tier", DataType.STRING)])


def _hand_loaded_star(visitor_tier=lambda i: f"tier{i % 3}"):
    pages = [(i, f"section{i % 4}") for i in range(1, 21)]
    visitors = [(i, visitor_tier(i)) for i in range(1, 31)]
    facts = [(i, 1 + i % 20, 1 + (i * 7) % 30, i % 500)
             for i in range(600)]
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = Catalog(root="/web")
    catalog.tables["views"] = write_cif_table(
        fs, "views", "/web/views", FACT, facts, row_group_size=200)
    for name, schema, rows in (("pages", PAGES, pages),
                               ("visitors", VISITORS, visitors)):
        catalog.tables[name] = write_row_table(
            fs, name, f"/web/{name}", schema, rows)
        write_dim_cache(fs, name, schema, rows)
    query = StarQuery(
        name="ms-by-section-and-tier", fact_table="views",
        joins=[DimensionJoin("pages", "f_page", "p_id",
                             Comparison("p_section", "!=", "section0")),
               DimensionJoin("visitors", "f_visitor", "v_id")],
        aggregates=[Aggregate("sum", Col("f_ms"), alias="ms")],
        group_by=["p_section", "v_tier"])
    tables = {"views": facts, "pages": pages, "visitors": visitors}
    schemas = {"views": FACT, "pages": PAGES, "visitors": VISITORS}
    return fs, catalog, query, ReferenceEngine(schemas, tables)


def _tables_built_on(fs, catalog, query, node_id):
    """The hash tables a map task on ``node_id`` builds from that
    node's own dimension copies."""
    conf = JobConf("t")
    configure_query(conf, query, catalog.meta(query.fact_table).schema,
                    {join.dimension: catalog.meta(join.dimension).schema
                     for join in query.joins})
    mapper = StarJoinMapper()
    mapper.initialize(TaskContext(
        conf=conf, node_id=node_id, task_id="m-0", jvm_state={},
        node_local_read=lambda node, name:
            fs.datanode(node).scratch_read(name)))
    return [_entries(table) for table in mapper.hash_tables]


class TestRefreshOnAnyCatalog:
    def test_refresh_restores_a_hand_loaded_star(self):
        fs, catalog, query, reference = _hand_loaded_star()
        names = [dim_cache_name(name) for name in ("pages", "visitors")]
        loaded = [fs.datanode("node000").scratch_read(n) for n in names]
        expected_tables = _tables_built_on(fs, catalog, query, "node000")
        victim = fs.datanode("node001")
        victim.recover_empty()  # lost local disk contents
        assert not any(victim.scratch_has(name) for name in names)

        assert refresh_dim_cache(fs, catalog, "node001") == 2

        assert [victim.scratch_read(name) for name in names] == loaded
        assert _tables_built_on(fs, catalog, query, "node001") == \
            expected_tables
        result = Session(ClydesdaleEngine(fs, catalog)).execute(query)
        assert sorted(result.rows) == sorted(reference.execute(query).rows)

    def test_both_copies_accept_the_same_rows(self):
        """``serde.encode_rows`` stringifies a non-str value in a STRING
        column; the node-local copy must agree with the master copy."""
        fs, catalog, query, _ = _hand_loaded_star(
            visitor_tier=lambda i: 99 if i == 7 else f"tier{i % 3}")
        name = dim_cache_name("visitors")
        loaded = fs.datanode("node002").scratch_read(name)
        fs.datanode("node002").recover_empty()
        refresh_dim_cache(fs, catalog, "node002")
        assert fs.datanode("node002").scratch_read(name) == loaded
        _, columns = decode_dimension_copy(VISITORS, loaded, ["v_tier"])
        assert columns["v_tier"][6] == "99"
        (_, visitors) = _tables_built_on(fs, catalog, query, "node002")
        assert visitors[7] == ("99",)


# --------------------------------------------------------------------- #
# The build: encoded copy vs the row-loop oracle
# --------------------------------------------------------------------- #

def oracle_build(schema, rows, dim_pk, predicate, aux_columns):
    """The pre-columnar build, kept as the reference: one Python walk,
    ``predicate.evaluate`` per row, duplicate check among survivors."""
    pk_index = schema.index_of(dim_pk)
    aux_indexes = [schema.index_of(name) for name in aux_columns]
    table = {}
    for row in rows:
        if not predicate.evaluate(lambda name: row[schema.index_of(name)]):
            continue
        key = row[pk_index]
        if key in table:
            raise QueryError(
                f"duplicate primary key {key!r} in dimension 'dim'")
        table[key] = tuple(row[i] for i in aux_indexes)
    stats = HashTableStats(dimension="dim", rows_scanned=len(rows),
                           entries=len(table), aux_arity=len(aux_columns))
    return table, stats


def oracle_has_dense_view(table):
    """``_build_dense``'s decline rule, restated."""
    if not table or not all(type(key) is int for key in table):
        return False
    spread = max(table) - min(table) + 1
    return spread <= max(1024, 8 * len(table))


def build_from_copy(schema, rows, dim_pk, predicate, aux_columns):
    blob = encode_dimension_copy(schema, rows)
    count, columns = decode_dimension_copy(
        schema, blob, {dim_pk, *predicate.columns(), *aux_columns})
    table = DimensionHashTable.from_columns(
        "dim", "fk", columns, count, dim_pk, predicate, aux_columns)
    masked = predicate.evaluate_mask(columns, count) is not None
    return table, masked


def build_from_rows(schema, rows, dim_pk, predicate, aux_columns):
    table = DimensionHashTable.build(
        dimension="dim", fact_fk="fk", schema=schema, rows=rows,
        dim_pk=dim_pk, predicate=predicate, aux_columns=aux_columns)
    lists = {name: [row[index] for row in rows]
             for index, name in enumerate(schema.names)}
    masked = predicate.evaluate_mask(lists, len(rows)) is not None
    return table, masked


def _entries(table):
    """{key: aux tuple} of every entry, in entry order, through ``probe``."""
    return {key: table.probe(key) for key in table._table}


def _typed(items):
    return [(key, type(key), aux, tuple(map(type, aux)))
            for key, aux in items]


PK_VALUES = {
    DataType.INT32: st.one_of(st.integers(0, 30),
                              st.integers(-2**31, 2**31 - 1)),
    DataType.INT64: st.one_of(st.integers(-5, 40),
                              st.integers(-2**62, 2**62)),
    DataType.FLOAT64: st.one_of(
        st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5, 1e300]),
        st.floats(allow_nan=False, allow_infinity=False)),
    DataType.STRING: st.text(alphabet="abcé", max_size=3),
}
#: Non-key columns: a low-cardinality string (dictionary-encoded once
#: there are enough rows), a high-cardinality one (stored plain: the
#: row-wise leg), an int and a float.
OTHER_COLUMNS = [("lo", DataType.STRING), ("hi", DataType.STRING),
                 ("n", DataType.INT64), ("x", DataType.FLOAT64)]
OTHER_VALUES = {
    "lo": st.sampled_from(["ASIA", "EUROPE", "AMERICA"]),
    "hi": st.text(alphabet="abcdefgh", min_size=0, max_size=6),
    "n": st.integers(-50, 50),
    "x": st.floats(-10, 10, allow_nan=False),
}


@st.composite
def dimensions(draw):
    pk_type = draw(st.sampled_from(list(PK_VALUES)))
    schema = Schema([("pk", pk_type)] + OTHER_COLUMNS)
    row = st.tuples(PK_VALUES[pk_type],
                    *(OTHER_VALUES[name] for name, _ in OTHER_COLUMNS))
    rows = draw(st.lists(row, max_size=40))
    literals = dict(OTHER_VALUES, pk=PK_VALUES[pk_type])
    column = st.sampled_from(schema.names)

    def leaf(name):
        values = literals[name]
        return st.one_of(
            st.builds(Comparison, st.just(name),
                      st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                      values),
            st.builds(lambda lo, hi: Between(name, min(lo, hi),
                                             max(lo, hi)), values, values),
            st.builds(InList, st.just(name),
                      st.lists(values, min_size=1, max_size=4)))

    predicate = draw(st.recursive(
        st.one_of(st.builds(TruePredicate), column.flatmap(leaf)),
        lambda inner: st.one_of(
            st.builds(And, st.lists(inner, min_size=1, max_size=3)),
            st.builds(Or, st.lists(inner, min_size=1, max_size=3))),
        max_leaves=4))
    aux = draw(st.lists(column, unique=True, max_size=3))
    return schema, rows, predicate, aux


class TestBuildEqualsTheRowLoopOracle:
    @settings(max_examples=300, deadline=None)
    @given(dimension=dimensions(),
           probe=st.lists(st.integers(-10, 60), max_size=30))
    def test_differential(self, dimension, probe):
        schema, rows, predicate, aux = dimension
        try:
            expected, expected_stats = oracle_build(
                schema, rows, "pk", predicate, aux)
        except QueryError as exc:
            for build in (build_from_copy, build_from_rows):
                with pytest.raises(QueryError) as raised:
                    build(schema, rows, "pk", predicate, aux)
                assert str(raised.value) == str(exc)
            return
        keys = NumericVector(np.asarray(probe, dtype=np.int64))
        for build in (build_from_copy, build_from_rows):
            table, masked = build(schema, rows, "pk", predicate, aux)
            # Same keys in the same insertion order, same aux tuples,
            # same Python value types (never numpy scalars).
            assert _typed(_entries(table).items()) == \
                _typed(expected.items())
            assert table.aux_columns == tuple(aux)
            assert dataclasses.replace(table.stats, rows_rowwise=0) == \
                expected_stats
            assert table.stats.rows_rowwise == \
                (0 if masked else len(rows))
            hits = table.hit_mask(keys)
            assert (hits is not None) == oracle_has_dense_view(expected)
            if hits is not None:
                assert hits.tolist() == [k in expected for k in probe]
            positions, found = table.probe_block(keys, range(len(probe)))
            assert [int(i) for i in positions] == \
                [i for i, k in enumerate(probe) if k in expected]
            assert found == [expected[k] for k in probe if k in expected]

    DUPLICATE = [(1, "ASIA", "a", 0, 0.0), (2, "EUROPE", "b", 0, 0.0),
                 (2, "ASIA", "c", 0, 0.0), (1, "EUROPE", "d", 0, 0.0)]
    INT_SCHEMA = Schema([("pk", DataType.INT32)] + OTHER_COLUMNS)

    @pytest.mark.parametrize("build", [build_from_copy, build_from_rows])
    def test_duplicate_among_survivors_names_the_first_repeat(self, build):
        # Row order decides: 2 repeats before 1 does.
        with pytest.raises(QueryError, match="duplicate primary key 2 "):
            build(self.INT_SCHEMA, self.DUPLICATE, "pk",
                  TruePredicate(), ["lo"])

    @pytest.mark.parametrize("build", [build_from_copy, build_from_rows])
    def test_no_error_when_the_predicate_drops_the_duplicate(self, build):
        table, _ = build(self.INT_SCHEMA, self.DUPLICATE, "pk",
                         Comparison("lo", "=", "ASIA"), ["hi"])
        assert _entries(table) == {1: ("a",), 2: ("c",)}

    @pytest.mark.parametrize("build", [build_from_copy, build_from_rows])
    def test_empty_dimension(self, build):
        table, _ = build(self.INT_SCHEMA, [], "pk",
                         Comparison("hi", "=", "a"), ["lo"])
        assert len(table) == 0
        assert table.stats == HashTableStats("dim", 0, 0, 1)
        assert table.probe(1) is None
        assert table.hit_mask(NumericVector(np.arange(3))) is None

    def test_plain_stored_string_column_is_filtered_row_by_row(self):
        rows = [(i, "ASIA", f"city{i}", i, 0.0) for i in range(20)]
        table, masked = build_from_copy(
            self.INT_SCHEMA, rows, "pk",
            InList("hi", ["city3", "city4"]), ["hi"])
        assert not masked
        assert table.stats.rows_rowwise == 20
        assert _entries(table) == {3: ("city3",), 4: ("city4",)}

    def test_frozen_table_still_probes(self):
        rows = [(i, "ASIA", f"h{i}", i, 0.0) for i in range(10)]
        table, _ = build_from_copy(self.INT_SCHEMA, rows, "pk",
                                   Comparison("n", ">=", 5), ["hi", "n"])
        freeze_table(table)
        keys = NumericVector(np.arange(12, dtype=np.int64))
        assert table.probe(7) == ("h7", 7)
        assert table.hit_mask(keys).tolist() == [5 <= k < 10
                                                 for k in range(12)]
        positions, aux = table.probe_block(keys, range(12))
        assert positions.tolist() == [5, 6, 7, 8, 9]
        assert aux[0] == ("h5", 5)


# --------------------------------------------------------------------- #
# What the build says about itself
# --------------------------------------------------------------------- #

def test_build_span_says_what_was_read_and_how(ssb_data, queries):
    session = Session(ClydesdaleEngine.with_ssb_data(data=ssb_data,
                                                     num_nodes=4))
    session.execute(queries["Q3.3"], trace=True)
    facts = {}
    for span in session.last_trace.find("build"):
        facts.update({key: value for key, value in span.attrs.items()
                      if key.startswith("read:")})
    assert sorted(facts) == ["read:customer", "read:date",
                             "read:supplier"]
    # d_datekey and d_year (predicate and group-by) of 17 columns.
    assert facts["read:date"] == {
        "rows_scanned": len(ssb_data.date), "columns_read": 2,
        "columns_total": 17, "predicate_masked": True}
    # s_city is stored plain at this size: no mask, row by row.
    assert facts["read:supplier"]["predicate_masked"] is False
    assert facts["read:supplier"]["columns_read"] == 2
