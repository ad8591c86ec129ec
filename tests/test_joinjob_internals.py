"""Unit tests for the star-join job internals: the MTMapRunner, hash
table sharing via JVM state, block/row probe equivalence, and the
aggregate reducer/combiner machinery."""

import threading

import pytest

from repro.common.errors import MapReduceError
from repro.core.joinjob import (
    MTMapRunner,
    StarJoinMapper,
    StarJoinReducer,
    configure_query,
    load_query_config,
)
from repro.core.planner import ClydesdaleFeatures
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.core.expressions import Col, Comparison
from repro.mapreduce.api import Mapper, TaskContext
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import OutputCollector, RecordReader
from repro.ssb.schema import SCHEMAS


class _ListReader(RecordReader):
    """Reader over an in-memory list, optionally a multi-reader."""

    def __init__(self, pairs, children=None):
        self._pairs = list(pairs)
        self._children = children

    def get_multiple_readers(self):
        return self._children if self._children else [self]

    def next(self):
        return self._pairs.pop(0) if self._pairs else None


class _RecordingMapper(Mapper):
    def __init__(self):
        self.seen = []
        self.threads_used = set()
        self.initialized = 0
        self.closed = 0
        self._lock = threading.Lock()

    def initialize(self, context):
        self.initialized += 1

    def map(self, key, value, collector, context):
        with self._lock:
            self.seen.append(value)
            self.threads_used.add(threading.current_thread().name)
        collector.collect(key, value)

    def close(self, collector, context):
        self.closed += 1


class _ExplodingMapper(Mapper):
    def map(self, key, value, collector, context):
        raise ValueError("boom in thread")


def make_context(conf=None, threads=4):
    return TaskContext(conf=conf or JobConf("t"), node_id="node000",
                       task_id="m-0", jvm_state={},
                       node_local_read=lambda n, f: b"", threads=threads)


class TestMTMapRunner:
    def test_consumes_all_readers(self):
        children = [_ListReader([(i, i * 10)]) for i in range(5)]
        reader = _ListReader([], children=children)
        mapper = _RecordingMapper()
        collector = OutputCollector()
        MTMapRunner().run(reader, mapper, collector, make_context())
        assert sorted(mapper.seen) == [0, 10, 20, 30, 40]
        assert len(collector) == 5
        assert mapper.initialized == 1
        assert mapper.closed == 1

    def test_uses_multiple_threads(self):
        children = [_ListReader([(i, i)] * 50) for i in range(8)]
        reader = _ListReader([], children=children)
        mapper = _RecordingMapper()
        MTMapRunner().run(reader, mapper, OutputCollector(),
                          make_context(threads=4))
        assert len(mapper.seen) == 400
        assert 1 <= len(mapper.threads_used) <= 4

    def test_thread_count_capped_by_readers(self):
        children = [_ListReader([(1, 1)])]
        reader = _ListReader([], children=children)
        mapper = _RecordingMapper()
        MTMapRunner().run(reader, mapper, OutputCollector(),
                          make_context(threads=16))
        assert len(mapper.threads_used) == 1

    def test_errors_propagate(self):
        children = [_ListReader([(1, 1)])]
        reader = _ListReader([], children=children)
        with pytest.raises(MapReduceError):
            MTMapRunner().run(reader, _ExplodingMapper(),
                              OutputCollector(), make_context())


def _query():
    return StarQuery(
        name="unit", fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                             Comparison("d_year", "=", 1994))],
        aggregates=[Aggregate("sum", Col("lo_revenue"), alias="r"),
                    Aggregate("count", Col("lo_revenue"), alias="n")],
        group_by=["d_year"])


def _configured_context(dim_rows):
    from repro.storage.dimcopy import encode_dimension_copy
    conf = JobConf("t")
    configure_query(conf, _query(), SCHEMAS["lineorder"],
                    {"date": SCHEMAS["date"]})
    blob = encode_dimension_copy(SCHEMAS["date"], dim_rows)
    return TaskContext(
        conf=conf, node_id="node000", task_id="m-0", jvm_state={},
        node_local_read=lambda n, f: blob, threads=2)


def _date_rows():
    from repro.ssb.datagen import SSBGenerator
    return SSBGenerator(scale_factor=0.001).gen_date()


class TestStarJoinMapperInternals:
    def test_hash_tables_cached_in_jvm_state(self):
        rows = _date_rows()
        context = _configured_context(rows)
        mapper = StarJoinMapper()
        mapper.initialize(context)
        first = mapper.hash_tables
        mapper2 = StarJoinMapper()
        mapper2.initialize(context)  # same jvm_state dict
        assert mapper2.hash_tables[0] is first[0]  # tables shared

    def test_block_kernels_materialize_survivors_only(self):
        """Paper 5.3's late tuple reconstruction, as the kernels do it:
        a block where no row survives never reaches the aggregate
        functions, and a mixed block touches them for survivors only."""
        from repro.storage.cif import RowBlock
        context = _configured_context(_date_rows())
        mapper = StarJoinMapper()
        mapper.initialize(context)

        calls = []
        original = mapper._agg_fns[0]
        mapper._agg_fns[0] = lambda get: calls.append(1) or original(get)

        schema = SCHEMAS["lineorder"].project(
            ["lo_orderdate", "lo_revenue"])
        # All keys from 1995: the d_year = 1994 hash has no entries.
        block = RowBlock(schema, 0, {
            "lo_orderdate": [19950101] * 50,
            "lo_revenue": [1] * 50})
        collector = OutputCollector()
        mapper.map(0, block, collector, context)
        assert collector.pairs == []
        assert calls == []  # nothing materialized

        mixed = RowBlock(schema, 0, {
            "lo_orderdate": [19940101] * 3 + [19950101] * 47,
            "lo_revenue": [1] * 50})
        mapper.map(0, mixed, collector, context)
        assert len(collector.pairs) == 3
        assert len(calls) == 3

    def test_build_charges_time_once(self):
        rows = _date_rows()
        context = _configured_context(rows)
        StarJoinMapper().initialize(context)
        charged_after_first = context.charged_seconds
        assert charged_after_first > 0
        StarJoinMapper().initialize(context)
        assert context.charged_seconds == charged_after_first

    def test_early_out_skips_probe(self):
        rows = _date_rows()
        context = _configured_context(rows)
        mapper = StarJoinMapper()
        mapper.initialize(context)
        collector = OutputCollector()
        # A 1994 date key passes; a 1995 key must miss (predicate).
        hit = {"lo_orderdate": 19940310, "lo_revenue": 100}
        miss = {"lo_orderdate": 19950310, "lo_revenue": 100}
        assert mapper.process_record(hit.__getitem__, collector)
        assert not mapper.process_record(miss.__getitem__, collector)
        assert len(collector) == 1
        key, values = collector.pairs[0]
        assert key == (1994,)
        assert values == (100, 1)

    def test_block_and_row_modes_equivalent(self):
        from repro.storage.cif import RowBlock
        rows = _date_rows()
        mapper_rows = StarJoinMapper()
        context1 = _configured_context(rows)
        mapper_rows.initialize(context1)
        mapper_blocks = StarJoinMapper()
        context2 = _configured_context(rows)
        mapper_blocks.initialize(context2)

        fact = [(19940101 + i % 3, 50 + i) for i in range(30)]
        schema = SCHEMAS["lineorder"].project(
            ["lo_orderdate", "lo_revenue"])
        out_rows = OutputCollector()
        from repro.common.record import Record
        for i, (dk, rev) in enumerate(fact):
            mapper_rows.map(i, Record(schema, (dk, rev)), out_rows,
                            context1)
        out_blocks = OutputCollector()
        block = RowBlock(schema, 0, {
            "lo_orderdate": [dk for dk, _ in fact],
            "lo_revenue": [rev for _, rev in fact]})
        mapper_blocks.map(0, block, out_blocks, context2)
        assert sorted(out_rows.pairs) == sorted(out_blocks.pairs)


def _record_pairs(mapper, block, context):
    """The row-wise oracle: every row of ``block`` as a ``Record``
    through the public ``map``."""
    from repro.common.record import Record
    out = OutputCollector()
    for i, row in enumerate(block.iter_rows()):
        mapper.map(i, Record(block.schema, row), out, context)
    return out.pairs


class TestOneBlockKernel:
    """The block kernel's mask stages and its generic leg in one block:
    every stage that can answer with a mask does, the rest run on the
    survivors, and the output is what ``process_record`` emits."""

    def test_mixed_mask_and_dict_stages_match_record_path(self):
        import numpy as np

        from repro.common.schema import Schema
        from repro.common.types import DataType
        from repro.mapreduce.counters import Counters
        from repro.ssb.loader import dim_cache_name
        from repro.storage.cif import RowBlock
        from repro.storage.columnvector import NumericVector
        from repro.storage.dimcopy import encode_dimension_copy

        fact = Schema([("fk_a", DataType.INT64), ("fk_b", DataType.INT64),
                       ("tag", DataType.STRING), ("m", DataType.INT64)])
        dims = {
            "a": Schema([("a_pk", DataType.INT64),
                         ("a_grp", DataType.STRING)]),
            "b": Schema([("b_pk", DataType.INT64),
                         ("b_grp", DataType.STRING)])}
        rows = {
            # keys 0..49: a dense view; 0, 7000, 14000, ...: too sparse.
            "a": [(i, f"a{i % 3}") for i in range(50)],
            "b": [(i * 7000, f"b{i % 4}") for i in range(20)]}
        query = StarQuery(
            name="mixed", fact_table="f",
            joins=[DimensionJoin("a", "fk_a", "a_pk",
                                 Comparison("a_grp", "!=", "a0")),
                   DimensionJoin("b", "fk_b", "b_pk")],
            fact_predicate=Comparison("tag", "=", "keep"),
            aggregates=[Aggregate("sum", Col("m"), alias="s")],
            group_by=["a_grp", "b_grp"])
        conf = JobConf("t")
        configure_query(conf, query, fact, dims)
        blobs = {dim_cache_name(name): encode_dimension_copy(dims[name],
                                                             rows[name])
                 for name in dims}
        counters = Counters()
        context = TaskContext(
            conf=conf, node_id="node000", task_id="m-0", jvm_state={},
            node_local_read=lambda node, name: blobs[name], threads=1,
            counters=counters)
        mapper = StarJoinMapper()
        mapper.initialize(context)

        n = 400
        block = RowBlock(fact, 0, {
            "fk_a": NumericVector(np.arange(n, dtype=np.int64) % 60),
            "fk_b": NumericVector(
                (np.arange(n, dtype=np.int64) % 25) * 7000),
            # Arrives as a plain list, as plain-stored strings do.
            "tag": ["keep" if i % 3 else "drop" for i in range(n)],
            "m": NumericVector(np.arange(n, dtype=np.int64))})
        declined = [table.dimension for table in mapper.hash_tables
                    if table.hit_mask(
                        block.columns[table.fact_fk]) is None]
        assert declined == ["b"]
        assert query.fact_predicate.evaluate_mask(block.columns, n) is None

        out = OutputCollector()
        mapper.map(0, block, out, context)
        assert out.pairs
        assert out.pairs == _record_pairs(mapper, block, context)
        mapper.close(out, context)
        scalar = counters.get("clydesdale", "rows_scalar_probed")
        # Only table b's probe ran per row, and only on what the
        # predicate and table a's mask let through.
        assert 0 < scalar < n

    def test_float_fk_block_record_and_probe_agree(self):
        """A FLOAT64 foreign key against a dense int-keyed table: the
        dense legs need integer offsets, so they decline and the dict
        leg finds key 1 for 1.0 — as ``probe`` does."""
        import numpy as np

        from repro.storage.cif import RowBlock
        from repro.storage.columnvector import NumericVector

        context = _configured_context(_date_rows())
        mapper = StarJoinMapper()
        mapper.initialize(context)
        table = mapper.hash_tables[0]
        ints = [19940101 + i % 3 for i in range(30)] + [19950101, 5]
        int_keys = NumericVector(np.asarray(ints, dtype=np.int64))
        float_keys = NumericVector(np.asarray(ints, dtype=np.float64))
        assert table.hit_mask(int_keys) is not None  # dense for ints
        assert table.hit_mask(float_keys) is None

        selection = range(len(ints))
        positions, aux = table.probe_block(float_keys, selection)
        assert list(positions) == [
            i for i in selection if table.probe(float(ints[i])) is not None]
        assert aux == [table.probe(float(ints[i])) for i in positions]
        assert table.gather_aux(float_keys, positions) == aux
        assert (list(positions), aux) == tuple(
            map(list, table.probe_block(int_keys, selection)))

        schema = SCHEMAS["lineorder"].project(
            ["lo_orderdate", "lo_revenue"])
        block = RowBlock(schema, 0, {
            "lo_orderdate": float_keys,
            "lo_revenue": NumericVector(
                np.arange(len(ints), dtype=np.int64))})
        out = OutputCollector()
        mapper.map(0, block, out, context)
        assert len(out.pairs) == 30
        assert out.pairs == _record_pairs(mapper, block, context)


class TestQueryConfigParsedOnce:
    def test_job_conf_carries_the_parsed_query(self):
        """Tasks and reducers of one job read the parsed tuple the
        planner left on the JobConf instead of re-parsing the JSON."""
        conf = JobConf("t")
        query = _query()
        configure_query(conf, query, SCHEMAS["lineorder"],
                        {"date": SCHEMAS["date"]})
        first = load_query_config(conf)
        assert first is load_query_config(conf)
        assert first[0] is query

    def test_json_keys_alone_still_parse(self):
        """The paper's ``queryParams`` stay the contract: a conf that
        carries only the three JSON keys parses to an equal query."""
        conf = JobConf("t")
        configure_query(conf, _query(), SCHEMAS["lineorder"],
                        {"date": SCHEMAS["date"]})
        del conf.query_config
        query, fact_schema, dim_schemas = load_query_config(conf)
        assert query.to_dict() == _query().to_dict()
        assert fact_schema.names == SCHEMAS["lineorder"].names
        assert set(dim_schemas) == {"date"}


class TestStarJoinReducer:
    def test_merges_positionwise(self):
        conf = JobConf("t")
        configure_query(conf, _query(), SCHEMAS["lineorder"],
                        {"date": SCHEMAS["date"]})
        context = make_context(conf=conf)
        reducer = StarJoinReducer()
        reducer.initialize(context)
        collector = OutputCollector()
        reducer.reduce((1994,), [(100, 1), (50, 2), (7, 1)], collector,
                       context)
        assert collector.pairs == [((1994,), (157, 4))]

    def test_lazy_initialize(self):
        conf = JobConf("t")
        configure_query(conf, _query(), SCHEMAS["lineorder"],
                        {"date": SCHEMAS["date"]})
        context = make_context(conf=conf)
        reducer = StarJoinReducer()  # no explicit initialize
        collector = OutputCollector()
        reducer.reduce((1994,), [(5, 1)], collector, context)
        assert collector.pairs == [((1994,), (5, 1))]
