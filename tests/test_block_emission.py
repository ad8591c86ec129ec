"""The block kernel's two per-row costs, removed: the early-out at
survivor grain (a later table tests only what earlier stages kept) and
the grouped emission (one pair per group per block when the job declares
a combiner), plus the read-only arrays a published table shares."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.common.keys import KEY_SANITIZER, KEY_TRACE
from repro.common.config import Configuration
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.expressions import Col, Comparison, Lit, TruePredicate
from repro.core.joinjob import (
    StarJoinCombiner,
    StarJoinMapper,
    configure_query,
)
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.mapreduce.api import TaskContext
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import run_combiner
from repro.mapreduce.types import OutputCollector
from repro.ssb.loader import dim_cache_name
from repro.ssb.queries import ssb_queries
from repro.storage.cif import RowBlock
from repro.storage.columnvector import NumericVector, ensure_vector
from repro.storage.dimcopy import encode_dimension_copy
from repro.trace.tracer import Tracer

FACT = Schema([("fk_a", DataType.INT32), ("fk_b", DataType.INT64),
               ("g_str", DataType.STRING), ("g_int", DataType.INT32),
               ("m_int", DataType.INT64), ("m_float", DataType.FLOAT64)])
DIMS = {
    "a": Schema([("a_pk", DataType.INT32), ("a_grp", DataType.STRING),
                 ("a_num", DataType.INT32)]),
    "b": Schema([("b_pk", DataType.INT64), ("b_grp", DataType.STRING)])}
DIM_ROWS = {
    # keys 0..49: a dense view (fact keys 50..59 miss).
    "a": [(i, f"a{i % 3}", i % 4) for i in range(50)],
    # keys 0, 7000, 14000, ...: too sparse, looked up in the key index.
    "b": [(i * 7000, f"b{i % 4}") for i in range(20)]}
BLOBS = {dim_cache_name(name): encode_dimension_copy(DIMS[name],
                                                     DIM_ROWS[name])
         for name in DIMS}

MEASURES = {"m_int": Col("m_int"), "m_float": Col("m_float"),
            "m_int*m_int": Col("m_int") * Col("m_int"),
            "m_int+2": Col("m_int") + Lit(2)}


def _query(group_by, aggregates, fact_predicate=None):
    return StarQuery(
        name="grouped", fact_table="f",
        joins=[DimensionJoin("a", "fk_a", "a_pk",
                             Comparison("a_grp", "!=", "a0")),
               DimensionJoin("b", "fk_b", "b_pk")],
        fact_predicate=fact_predicate or TruePredicate(),
        aggregates=[Aggregate(function, MEASURES[measure],
                              alias=f"agg{i}")
                    for i, (function, measure) in enumerate(aggregates)],
        group_by=list(group_by))


def _mapper(query, *, combiner, sanitize=False, tracer=None):
    conf = JobConf("t")
    configure_query(conf, query, FACT, DIMS)
    conf.combiner_class = StarJoinCombiner if combiner else None
    conf.set(KEY_SANITIZER, sanitize)
    counters = Counters()
    context = TaskContext(
        conf=conf, node_id="node000", task_id="m-0", jvm_state={},
        node_local_read=lambda node, name: BLOBS[name], threads=1,
        counters=counters, tracer=tracer)
    mapper = StarJoinMapper()
    mapper.initialize(context)
    return mapper, context, counters


def _merged(query, mapper, context, block):
    """The block's map output after the runtime's per-key combine."""
    out = OutputCollector()
    mapper.map(0, block, out, context)
    combiner = StarJoinCombiner()
    combiner.initialize(context)

    def combine(key, values):
        merged = OutputCollector()
        combiner.reduce(key, values, merged, context)
        return merged.pairs

    return run_combiner(out.pairs, combine), len(out.pairs)


def _block(rows, *, dict_strings):
    columns = {name: [row[i] for row in rows]
               for i, name in enumerate(FACT.names)}
    vectors = {
        "fk_a": ensure_vector(columns["fk_a"], "<i4"),
        "fk_b": ensure_vector(columns["fk_b"], "<i8"),
        "g_str": (ensure_vector(columns["g_str"], "dict") if dict_strings
                  else columns["g_str"]),
        "g_int": ensure_vector(columns["g_int"], "<i4"),
        "m_int": ensure_vector(columns["m_int"], "<i8"),
        "m_float": ensure_vector(columns["m_float"], "<f8")}
    return RowBlock(FACT, 0, vectors)


FACT_ROWS = st.lists(st.tuples(
    st.integers(0, 59),                              # fk_a: 50..59 miss
    st.integers(0, 24).map(lambda i: i * 7000),      # fk_b: >= 20 miss
    st.sampled_from(["x", "y", "z"]),
    st.integers(-3, 3),
    st.integers(-2**40, 2**40),
    st.floats(-1e6, 1e6, allow_nan=False)), max_size=60)
GROUP_COLUMNS = ["g_str", "g_int", "a_grp", "a_num", "b_grp"]


class TestGroupedEmission:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=FACT_ROWS,
           group_by=st.lists(st.sampled_from(GROUP_COLUMNS), unique=True,
                             max_size=4),
           aggregates=st.lists(st.tuples(
               st.sampled_from(["sum", "count", "min", "max"]),
               st.sampled_from(sorted(MEASURES))), min_size=1, max_size=3),
           dict_strings=st.booleans(),
           filtered=st.booleans())
    def test_grouped_equals_per_survivor_after_merge(
            self, rows, group_by, aggregates, dict_strings, filtered):
        query = _query(group_by, aggregates,
                       Comparison("g_int", ">", 1) if filtered else None)
        block = _block(rows, dict_strings=dict_strings)
        grouped, grouped_ctx, counters = _mapper(query, combiner=True)
        rowwise, rowwise_ctx, _ = _mapper(query, combiner=False)
        pairs, emitted = _merged(query, grouped, grouped_ctx, block)
        oracle, survivors = _merged(query, rowwise, rowwise_ctx, block)
        assert repr(pairs) == repr(oracle)
        grouped.close(OutputCollector(), grouped_ctx)
        rowwise_rows = counters.get("clydesdale", "rows_emitted_rowwise")
        assert rowwise_rows in (0, survivors)
        if all(function == "count" or measure in ("m_int", "m_int+2")
               for function, measure in aggregates):
            assert rowwise_rows == 0
            assert emitted == len(pairs)  # one pair per group
        if any(function != "count" and measure == "m_float"
               for function, measure in aggregates):
            assert rowwise_rows == survivors

    def test_declines_name_their_reason(self):
        rows = [(i % 50, (i % 20) * 7000, "x", i % 3, i, 0.5)
                for i in range(200)]
        block = _block(rows, dict_strings=True)
        cases = [
            (_query(["a_grp"], [("sum", "m_float")]), True,
             "non-integer measure"),
            (_query(["a_grp"], [("sum", "m_int")]), False, "no combiner"),
            (_query(["a_grp"], [("sum", "m_int")]), True, None)]
        for query, combiner, reason in cases:
            tracer = Tracer()
            mapper, context, _ = _mapper(query, combiner=combiner,
                                         tracer=tracer)
            mapper.map(0, block, OutputCollector(), context)
            (probe,) = tracer.tree().find("probe")
            assert probe.attrs["emit_declined"] == reason
            assert (probe.attrs["groups"] == probe.attrs["matched"]
                    if reason else probe.attrs["groups"] == 2)

    def test_int64_bound_declines_a_sum_that_could_wrap(self):
        rows = [(1, 0, "x", 0, 2**61, 0.0), (1, 0, "x", 0, 2**61, 0.0),
                (1, 0, "x", 0, 2**61, 0.0)]
        block = _block(rows, dict_strings=True)
        query = _query(["a_grp"], [("sum", "m_int")])
        mapper, context, _ = _mapper(query, combiner=True)
        pairs, emitted = _merged(query, mapper, context, block)
        assert emitted == 3  # per survivor: 3 * 2**61 leaves int64
        assert pairs == [(("a1",), (3 * 2**61,))]


class TestEarlyOutAtSurvivorGrain:
    def _dense_query(self, fact_predicate=None):
        # Both tables dense: ``a`` keeps 2/3 of its keys, ``b2`` a 1/5.
        return StarQuery(
            name="early-out", fact_table="f",
            joins=[DimensionJoin("a", "fk_a", "a_pk",
                                 Comparison("a_grp", "!=", "a0")),
                   DimensionJoin("b2", "fk_b", "b_pk",
                                 Comparison("b_grp", "=", "b1"))],
            fact_predicate=fact_predicate or TruePredicate(),
            aggregates=[Aggregate("sum", Col("m_int"), alias="s")],
            group_by=["a_grp"])

    def _mapper(self, query):
        dims = {"a": DIMS["a"], "b2": DIMS["b"]}
        blobs = {dim_cache_name("a"): BLOBS[dim_cache_name("a")],
                 dim_cache_name("b2"): encode_dimension_copy(
                     DIMS["b"], [(i, f"b{i % 5}") for i in range(100)])}
        conf = JobConf("t")
        configure_query(conf, query, FACT, dims)
        conf.combiner_class = StarJoinCombiner
        context = TaskContext(
            conf=conf, node_id="node000", task_id="m-0", jvm_state={},
            node_local_read=lambda node, name: blobs[name], threads=1)
        mapper = StarJoinMapper()
        mapper.initialize(context)
        return mapper, context

    @pytest.mark.parametrize("filtered", [False, True])
    def test_later_table_sees_only_earlier_survivors(self, filtered):
        n = 500
        block = _block([(i % 60, i % 120, "x", i % 7, i, 0.0)
                        for i in range(n)], dict_strings=True)
        predicate = Comparison("g_int", "<", 4) if filtered else None
        mapper, context = self._mapper(self._dense_query(predicate))
        first, second = (mapper.hash_tables[j] for j in mapper._probe_order)
        assert (first.dimension, second.dimension) == ("b2", "a")
        seen = {}
        for table in (first, second):
            def spy(keys, selection, _table=table,
                    _inner=table.select_hits):
                seen[_table.dimension] = np.asarray(selection).tolist()
                return _inner(keys, selection)
            table.select_hits = spy
        mapper.map(0, block, OutputCollector(), context)

        columns = block.columns
        first_hits = first.hit_mask(columns["fk_b"])
        if filtered:
            mask = predicate.evaluate_mask(columns, n)
            assert seen["b2"] == np.flatnonzero(mask).tolist()
            first_hits = first_hits & mask
        else:
            assert "b2" not in seen  # the whole-block stage
        assert seen["a"] == np.flatnonzero(first_hits).tolist()
        assert len(seen["a"]) < n // 4


class TestPublishedArraysAreReadOnly:
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_writes_raise(self, sanitize):
        mapper, _, _ = _mapper(_query(["a_grp", "a_num"],
                                      [("sum", "m_int")]),
                               combiner=True, sanitize=sanitize)
        (table,) = [table for table in mapper.hash_tables
                    if table._dense is not None]
        arrays = [table._dense.lookup, table._dense.bitmap,
                  *(table.aux_codes(index)[0]
                    for index in range(len(table.aux_columns)))]
        assert len(arrays) == 4
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = array[0]


class TestEmittedRowwiseCounter:
    def test_ssb_queries_emit_per_group(self, ssb_data):
        session = connect("clydesdale", data=ssb_data, aggstore=False)
        for name, query in ssb_queries().items():
            session.execute(query)
            assert session.stats().execution.rows_emitted_rowwise == 0, \
                name

    def test_float_measure_says_why_and_still_matches(
            self, ssb_data, reference):
        base = ssb_queries()["Q2.1"]
        query = StarQuery(
            name="Q2.1-half", fact_table=base.fact_table, joins=base.joins,
            fact_predicate=base.fact_predicate,
            aggregates=[Aggregate("sum", Col("lo_revenue") * Lit(0.5),
                                  alias="half_revenue")],
            group_by=base.group_by, order_by=base.order_by)
        session = connect("clydesdale", data=ssb_data, aggstore=False,
                          conf=Configuration({KEY_TRACE: True}))
        result = session.execute(query)
        assert result.rows == reference.execute(query).rows
        stats = session.stats().execution
        assert stats.rows_emitted_rowwise == stats.rows_matched > 0
        reasons = {span.attrs["emit_declined"]
                   for span in session.last_trace.find("probe")
                   if span.attrs["matched"]}
        assert reasons == {"non-integer measure"}


def test_numeric_vector_fk_of_every_width_agrees_with_probe():
    """The bitmap gather answers like ``probe`` for keys of any integer
    width, including ones whose int64 offset wraps."""
    from repro.core.hashtable import DimensionHashTable
    top = 2**63 - 1
    for keys in ([0, 1, 2], [-10, -3, -1], [top - 2, top], [5],
                 [-top, -top + 4], [2**31 - 4, 2**31 - 1]):
        table = DimensionHashTable.from_columns(
            "d", "fk", {"k": keys, "v": keys}, len(keys), "k",
            TruePredicate(), ["v"])
        assert table.hit_mask(NumericVector(np.arange(1))) is not None
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8,
                      np.uint16, np.uint32, np.uint64):
            info = np.iinfo(dtype)
            probes = [v for v in (*keys, 0, 1, -1, -11, 3, 2**31,
                                  -2**31, top - 1, -top, 2**32, 255)
                      if info.min <= v <= info.max]
            probes += [int(info.min), int(info.max)]
            vector = NumericVector(np.asarray(probes, dtype=dtype))
            expected = [v in table for v in probes]
            assert table.hit_mask(vector).tolist() == expected
            kept = table.select_hits(vector, range(len(probes)))
            assert kept.tolist() == [i for i, hit in enumerate(expected)
                                     if hit]
            assert table.gather_aux(vector, kept) == [
                table.probe(probes[i]) for i in kept.tolist()]
