"""Micro-benchmarks of the functional engines themselves (wall-clock,
not simulated): end-to-end query execution, CIF scanning, hash build,
and the probe pipeline at small scale.

These guard against performance regressions in the reproduction's own
code paths; they make no claims about the paper's numbers.
"""

import time

import pytest

from repro.core.engine import ROW_GROUP_SIZE, ClydesdaleEngine
from repro.core.expressions import TruePredicate
from repro.core.hashtable import DimensionHashTable
from repro.hive.engine import HiveEngine
from repro.mapreduce.job import JobConf
from repro.ssb.queries import ssb_queries
from repro.ssb.schema import SCHEMAS
from repro.serve.session import Session
from repro.storage.cif import ColumnInputFormat, RowBlock


@pytest.fixture(scope="module")
def clyde(small_data):
    return ClydesdaleEngine.with_ssb_data(data=small_data, num_nodes=4)


@pytest.fixture(scope="module")
def hive(small_data):
    return HiveEngine.with_ssb_data(data=small_data, num_nodes=4)


def test_clydesdale_q21_end_to_end(benchmark, clyde):
    query = ssb_queries()["Q2.1"]
    result = benchmark(Session(clyde).execute, query)
    assert result.rows


def test_clydesdale_q31_three_dims(benchmark, clyde):
    query = ssb_queries()["Q3.1"]
    result = benchmark(Session(clyde).execute, query)
    assert result.columns == ["c_nation", "s_nation", "d_year", "revenue"]


def test_hive_mapjoin_q21_end_to_end(benchmark, hive):
    query = ssb_queries()["Q2.1"]
    result = benchmark(Session(hive, plan="mapjoin").execute, query)
    assert result.rows


def test_cif_projected_scan(benchmark, clyde):
    fact_dir = clyde.catalog.meta("lineorder").directory
    fmt = ColumnInputFormat()
    conf = JobConf("scan").set_input_paths(fact_dir)
    ColumnInputFormat.set_projection(conf, ["lo_revenue", "lo_orderdate"])

    def scan():
        total = 0
        for split in fmt.get_splits(clyde.fs, conf):
            reader = fmt.get_record_reader(clyde.fs, split, conf)
            for _ in reader:
                total += 1
        return total

    assert benchmark(scan) == len(clyde.data.lineorder)


def test_bcif_block_scan(benchmark, clyde):
    fact_dir = clyde.catalog.meta("lineorder").directory
    fmt = ColumnInputFormat()
    conf = JobConf("scan").set_input_paths(fact_dir)
    ColumnInputFormat.set_projection(conf, ["lo_revenue", "lo_orderdate"])
    conf.set("cif.block.iteration", True)

    def scan():
        total = 0
        for split in fmt.get_splits(clyde.fs, conf):
            reader = fmt.get_record_reader(clyde.fs, split, conf)
            for _, block in reader:
                total += len(block)
        return total

    assert benchmark(scan) == len(clyde.data.lineorder)


def test_dimension_hash_build(benchmark, small_data):
    def build():
        return DimensionHashTable.build(
            "customer", "lo_custkey", SCHEMAS["customer"],
            small_data.customer, "c_custkey", TruePredicate(),
            ["c_nation", "c_city"])

    table = benchmark(build)
    assert len(table) == len(small_data.customer)


# --------------------------------------------------------------------- #
# Vectorized vs row-wise block execution (the PR's headline number)
# --------------------------------------------------------------------- #

SF = 0.1           # >= 0.1 per the acceptance criterion: 600k fact rows


@pytest.fixture(scope="module")
def sf01_scan():
    """A Q1.1-shaped SF0.1 fact scan: date rows, the fact rows as
    records and as B-CIF row blocks.

    Only the four columns the query touches are materialized, streamed
    straight out of the generator so the full 17-column table never
    exists in memory. Blocks are typed buffers, one per row group at the
    size the engine loads with (what the B-CIF reader hands the
    kernel); records are what the row reader hands ``process_record``.
    """
    from repro.common.record import Record
    from repro.ssb.datagen import (
        SSBGenerator,
        customer_count,
        part_count,
        supplier_count,
    )
    from repro.storage.columnvector import ensure_vector

    gen = SSBGenerator(scale_factor=SF, seed=7)
    date_rows = gen.gen_date()
    date_keys = [row[0] for row in date_rows]
    names = ("lo_orderdate", "lo_discount", "lo_quantity",
             "lo_extendedprice")
    indexes = [SCHEMAS["lineorder"].index_of(n) for n in names]
    columns = {name: [] for name in names}
    for row in gen.iter_lineorder(customer_count(SF), supplier_count(SF),
                                  part_count(SF), date_keys):
        for name, idx in zip(names, indexes):
            columns[name].append(row[idx])
    schema = SCHEMAS["lineorder"].project(list(names))
    num_rows = len(columns["lo_orderdate"])
    vectors = {name: ensure_vector(values, "<i8")
               for name, values in columns.items()}
    blocks = [
        RowBlock(schema, start,
                 {name: vec[start:start + ROW_GROUP_SIZE]
                  for name, vec in vectors.items()})
        for start in range(0, num_rows, ROW_GROUP_SIZE)]
    records = [Record(schema, row) for row in zip(
        *(columns[name] for name in names))]
    return date_rows, blocks, records, num_rows


def _q11_mapper(date_rows):
    from repro.core.expressions import And, Between, Col, Comparison
    from repro.core.joinjob import StarJoinMapper, configure_query
    from repro.core.query import Aggregate, DimensionJoin, StarQuery
    from repro.mapreduce.api import TaskContext
    from repro.storage.dimcopy import encode_dimension_copy

    query = StarQuery(
        name="q11-micro", fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                             Comparison("d_year", "=", 1993))],
        fact_predicate=And([Between("lo_discount", 1, 3),
                            Comparison("lo_quantity", "<", 25)]),
        aggregates=[Aggregate(
            "sum", Col("lo_extendedprice") * Col("lo_discount"),
            alias="revenue")],
        group_by=[])
    conf = JobConf("micro")
    configure_query(conf, query, SCHEMAS["lineorder"],
                    {"date": SCHEMAS["date"]})
    blob = encode_dimension_copy(SCHEMAS["date"], date_rows)
    context = TaskContext(
        conf=conf, node_id="node000", task_id="m-0", jvm_state={},
        node_local_read=lambda n, f: blob, threads=1)
    mapper = StarJoinMapper()
    mapper.initialize(context)
    return mapper, context


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_vs_rowwise_fact_scan(sf01_scan):
    """Block iteration in wall-clock: the block kernel over typed
    buffers must beat record-at-a-time execution by >= 11x on an SF0.1
    fact scan, both through the public ``mapper.map`` (the list-era
    kernels measured 10.05x; the floor sits above that so the columnar
    memory model can never silently erode back to list execution)."""
    from repro.mapreduce.types import OutputCollector

    date_rows, blocks, records, num_rows = sf01_scan
    assert num_rows >= 600_000
    mapper, context = _q11_mapper(date_rows)

    vec_out = OutputCollector()
    row_out = OutputCollector()

    def run(values, sink):
        out = OutputCollector()
        for key, value in enumerate(values):
            mapper.map(key, value, out, context)
        sink.pairs = out.pairs

    vectorized_s = _best_of(lambda: run(blocks, vec_out))
    rowwise_s = _best_of(lambda: run(records, row_out))
    assert sorted(vec_out.pairs) == sorted(row_out.pairs)
    assert vec_out.pairs  # the query matches something

    speedup = rowwise_s / vectorized_s
    print(f"\nvectorized={vectorized_s * 1000:.1f}ms "
          f"rowwise={rowwise_s * 1000:.1f}ms "
          f"speedup={speedup:.2f}x over {num_rows:,} rows")
    assert speedup >= 11.0, (
        f"block kernel only {speedup:.2f}x faster than "
        f"record-at-a-time")
