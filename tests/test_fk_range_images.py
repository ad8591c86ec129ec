"""Plan-time FK ranges from one columnar image per dimension.

The planner turns each dimension's HDFS master copy into the node-local
copy's columnar form once per filesystem, and derives every zone-map FK
range from it with the hash-table build's own filter. The ranges are
pinned to what row-by-row filtering of the master copy derived.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.core import planner
from repro.core.expressions import And, Between, Comparison, TruePredicate
from repro.core.planner import _ZONEMAP_PRED_CACHE, derive_zonemap_predicate
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.ssb.loader import Catalog, dim_cache_name, load_for_clydesdale
from repro.ssb.queries import ssb_queries
from repro.storage.cif import write_cif_table
from repro.storage.rowformat import read_row_table, write_row_table
from tests.test_snowflake import SALES, SCHEMAS, make_tables, snowflake_query

#: The FK ranges derived for each SSB query at SF 0.002, seed 42, by
#: filtering the master copies row by row.
FK_RANGES = {
    "Q1.1": [("lo_orderdate", 19930101, 19931231)],
    "Q1.2": [("lo_orderdate", 19940101, 19940131)],
    "Q1.3": [("lo_orderdate", 19940131, 19940206)],
    "Q2.1": [("lo_partkey", 81, 336), ("lo_suppkey", 1, 10)],
    "Q2.2": [("lo_partkey", 93, 93), ("lo_suppkey", 6, 6)],
    "Q2.3": [("lo_suppkey", 3, 7)],
    "Q3.1": [("lo_custkey", 4, 58), ("lo_suppkey", 6, 6),
             ("lo_orderdate", 19920101, 19971231)],
    "Q3.2": [("lo_custkey", 2, 49), ("lo_orderdate", 19920101, 19971231)],
    "Q3.3": [("lo_suppkey", 3, 3), ("lo_orderdate", 19920101, 19971231)],
    "Q3.4": [("lo_suppkey", 3, 3), ("lo_orderdate", 19971201, 19971231)],
    "Q4.1": [("lo_custkey", 2, 56), ("lo_suppkey", 1, 10),
             ("lo_partkey", 2, 399)],
    "Q4.2": [("lo_custkey", 2, 56), ("lo_suppkey", 1, 10),
             ("lo_partkey", 2, 399), ("lo_orderdate", 19970101, 19981231)],
    "Q4.3": [("lo_custkey", 2, 56), ("lo_partkey", 12, 359),
             ("lo_orderdate", 19970101, 19981231)],
}


def pinned(query, ranges):
    parts = ([] if isinstance(query.fact_predicate, TruePredicate)
             else [query.fact_predicate])
    parts += [Between(column, low, high) for column, low, high in ranges]
    return (parts[0] if len(parts) == 1 else And(parts)).to_dict()


@pytest.fixture
def loaded(ssb_data):
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    return fs, load_for_clydesdale(fs, ssb_data)


def test_ssb_ranges_are_pinned(loaded):
    fs, catalog = loaded
    for name, query in ssb_queries().items():
        derived = derive_zonemap_predicate(query, catalog, fs)
        assert derived.to_dict() == pinned(query, FK_RANGES[name]), name


def test_images_are_the_node_local_copies(loaded):
    fs, catalog = loaded
    for query in ssb_queries().values():
        derive_zonemap_predicate(query, catalog, fs)
    images = _ZONEMAP_PRED_CACHE[fs].images
    assert len(images) == 4
    for table in ("customer", "supplier", "part", "date"):
        assert (images[catalog.meta(table).directory]
                == fs.datanode(fs.node_ids[0]).scratch_read(
                    dim_cache_name(table)))


@pytest.fixture(scope="module")
def snowflake():
    tables = make_tables()
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = Catalog(root="/snow")
    catalog.tables["sales"] = write_cif_table(
        fs, "sales", "/snow/sales", SALES, tables["sales"],
        row_group_size=1_000)
    for name in ("store", "city", "region"):
        catalog.tables[name] = write_row_table(
            fs, name, f"/snow/{name}", SCHEMAS[name], tables[name])
    return fs, catalog


@pytest.mark.parametrize("preds,expected", [
    ({"region_pred": Comparison("r_name", "=", "EAST")},
     ("sl_store_id", 2, 100)),
    ({"city_pred": Comparison("ci_name", "=", "City7")},
     ("sl_store_id", 22, 82)),
    ({"region_pred": Comparison("r_name", "=", "NOWHERE")}, None),
])
def test_snowflake_branch_ranges_are_pinned(snowflake, preds, expected):
    fs, catalog = snowflake
    derived = derive_zonemap_predicate(snowflake_query(**preds), catalog,
                                       fs)
    if expected is None:
        assert derived is None
    else:
        assert derived.to_dict() == Between(*expected).to_dict()


def test_first_pass_decodes_each_master_copy_once(ssb_data, monkeypatch):
    reads = []

    def counted(fs, directory, *args, **kwargs):
        reads.append(directory)
        return read_row_table(fs, directory, *args, **kwargs)

    monkeypatch.setattr(planner, "read_row_table", counted)
    session = connect("clydesdale", data=ssb_data)
    for query in ssb_queries().values():
        session.execute(query)
    assert sorted(reads) == sorted(set(reads))
    assert len(reads) == 4


def _plan_facts(session, query):
    session.execute(query, trace=True)
    (span,) = session.last_trace.find("plan")
    return (span.attrs["fk_ranges_derived"],
            span.attrs["dimension_images"])


def test_plan_span_says_what_planning_paid_for(ssb_data):
    session = connect("clydesdale", data=ssb_data, aggstore=False)
    queries = ssb_queries()
    # Q2.1 filters part and supplier: two ranges from two new images.
    assert _plan_facts(session, queries["Q2.1"]) == (2, 2)
    # Q2.2 filters the same two dimensions differently.
    assert _plan_facts(session, queries["Q2.2"]) == (2, 0)
    # A repeated plan derives nothing and builds no image.
    session.invalidate_cache()
    assert _plan_facts(session, queries["Q2.1"]) == (0, 0)
    assert _plan_facts(session, queries["Q2.2"]) == (0, 0)
