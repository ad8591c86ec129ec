"""Snowflake-schema support: dimensions normalized into sub-dimension
tables, denormalized at hash-table build time (paper section 4: "an
overwhelming majority of structured data repositories are either star or
snowflake schemas")."""

import random

import pytest

from repro.common.errors import PlanningError, QueryError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import Col, Comparison
from repro.core.hashtable import flatten_dimension
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.loader import Catalog, write_dim_cache
from repro.storage.cif import write_cif_table
from repro.storage.rowformat import write_row_table

SALES = Schema([
    ("sl_id", DataType.INT64),
    ("sl_store_id", DataType.INT32),
    ("sl_amount", DataType.INT64),
])

STORE = Schema([
    ("st_id", DataType.INT32),
    ("st_name", DataType.STRING),
    ("st_city_id", DataType.INT32),
])

CITY = Schema([
    ("ci_id", DataType.INT32),
    ("ci_name", DataType.STRING),
    ("ci_region_id", DataType.INT32),
])

REGION = Schema([
    ("r_id", DataType.INT32),
    ("r_name", DataType.STRING),
])

SCHEMAS = {"sales": SALES, "store": STORE, "city": CITY,
           "region": REGION}

REGIONS = [(1, "NORTH"), (2, "SOUTH"), (3, "EAST"), (4, "WEST")]


def make_tables(num_sales=5_000, seed=4):
    rng = random.Random(seed)
    cities = [(i, f"City{i}", 1 + (i % 4)) for i in range(1, 21)]
    stores = [(i, f"Store{i}", 1 + rng.randrange(20))
              for i in range(1, 101)]
    sales = [(i, 1 + rng.randrange(100), 10 + rng.randrange(990))
             for i in range(num_sales)]
    return {"sales": sales, "store": stores, "city": cities,
            "region": REGIONS}


def snowflake_join(region_pred=None, city_pred=None, store_pred=None):
    """sales -> store -> city -> region, a two-level snowflake branch."""
    from repro.core.expressions import TruePredicate
    return DimensionJoin(
        "store", "sl_store_id", "st_id",
        predicate=store_pred or TruePredicate(),
        snowflake=[DimensionJoin(
            "city", "st_city_id", "ci_id",
            predicate=city_pred or TruePredicate(),
            snowflake=[DimensionJoin(
                "region", "ci_region_id", "r_id",
                predicate=region_pred or TruePredicate())])])


def snowflake_query(**preds):
    return StarQuery(
        name="sales-by-region",
        fact_table="sales",
        joins=[snowflake_join(**preds)],
        aggregates=[Aggregate("sum", Col("sl_amount"), alias="amount"),
                    Aggregate("count", Col("sl_amount"), alias="n")],
        group_by=["r_name"],
        order_by=[OrderKey("amount", descending=True)],
    )


@pytest.fixture(scope="module")
def tables():
    return make_tables()


@pytest.fixture(scope="module")
def engine(tables):
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = Catalog(root="/snow")
    catalog.tables["sales"] = write_cif_table(
        fs, "sales", "/snow/sales", SALES, tables["sales"],
        row_group_size=1_000)
    for name in ("store", "city", "region"):
        catalog.tables[name] = write_row_table(
            fs, name, f"/snow/{name}", SCHEMAS[name], tables[name])
        write_dim_cache(fs, name, SCHEMAS[name], tables[name])
    return ClydesdaleEngine(fs, catalog)


@pytest.fixture(scope="module")
def reference(tables):
    return ReferenceEngine(SCHEMAS, tables)


class TestFlattenDimension:
    def test_denormalizes_branch(self, tables):
        flat = flatten_dimension(snowflake_join(), SCHEMAS, tables)
        assert len(flat) == 100  # every store resolves
        sample = flat[1]
        assert {"st_name", "ci_name", "r_name"} <= set(sample)

    def test_sub_predicate_filters_parents(self, tables):
        flat = flatten_dimension(
            snowflake_join(region_pred=Comparison("r_name", "=",
                                                  "NORTH")),
            SCHEMAS, tables)
        assert 0 < len(flat) < 100
        assert all(row["r_name"] == "NORTH" for row in flat.values())

    def test_parent_predicate_still_applies(self, tables):
        flat = flatten_dimension(
            snowflake_join(store_pred=Comparison("st_name", "=",
                                                 "Store7")),
            SCHEMAS, tables)
        assert len(flat) == 1

    def test_dangling_sub_key_drops_row(self, tables):
        broken = dict(tables)
        broken["store"] = tables["store"] + [(999, "Orphan", 404)]
        flat = flatten_dimension(snowflake_join(), SCHEMAS, broken)
        assert 999 not in flat

    def test_duplicate_pk_detected(self, tables):
        broken = dict(tables)
        broken["region"] = REGIONS + [(1, "DUP")]
        with pytest.raises(QueryError):
            flatten_dimension(snowflake_join(), SCHEMAS, broken)

    def test_missing_fk_column_rejected(self, tables):
        join = DimensionJoin(
            "store", "sl_store_id", "st_id",
            snowflake=[DimensionJoin("region", "no_such_col", "r_id")])
        with pytest.raises(QueryError):
            flatten_dimension(join, SCHEMAS, tables)


class TestSnowflakeQueries:
    def test_group_by_subdimension_column(self, engine, reference):
        query = snowflake_query()
        got = Session(engine).execute(query)
        expected = reference.execute(query)
        assert got.columns == ["r_name", "amount", "n"]
        assert sorted(got.rows) == sorted(expected.rows)
        assert len(got.rows) == 4

    def test_predicate_on_deep_subdimension(self, engine, reference):
        query = snowflake_query(
            region_pred=Comparison("r_name", "=", "EAST"))
        got = Session(engine).execute(query)
        assert sorted(got.rows) == sorted(reference.execute(query).rows)
        assert all(row[0] == "EAST" for row in got.rows)

    def test_mixed_level_group_by(self, engine, reference):
        query = StarQuery(
            name="by-city-and-region",
            fact_table="sales",
            joins=[snowflake_join()],
            aggregates=[Aggregate("sum", Col("sl_amount"),
                                  alias="amount")],
            group_by=["ci_name", "r_name"],
            order_by=[OrderKey("ci_name")])
        got = Session(engine).execute(query)
        expected = reference.execute(query)
        assert sorted(got.rows) == sorted(expected.rows)
        assert len(got.rows) == 20

    def test_serialization_roundtrip(self):
        query = snowflake_query(
            city_pred=Comparison("ci_name", "!=", "City3"))
        again = StarQuery.from_dict(query.to_dict())
        assert again.joins[0].snowflake[0].dimension == "city"
        assert again.joins[0].snowflake[0].snowflake[0].dimension == \
            "region"

    def test_all_tables_listing(self):
        assert snowflake_join().all_tables() == ["store", "city",
                                                 "region"]

    def test_validation_unknown_subdimension(self, engine):
        query = snowflake_query()
        query.joins[0].snowflake[0].snowflake[0] = DimensionJoin(
            "galaxy", "ci_region_id", "g_id")
        with pytest.raises(PlanningError):
            Session(engine).execute(query)

    def test_hive_rejects_snowflake(self, tables):
        from repro.hive.engine import HiveEngine
        from repro.ssb.datagen import SSBGenerator
        hive = HiveEngine.with_ssb_data(
            data=SSBGenerator(scale_factor=0.001).generate(),
            num_nodes=3)
        ssb_snow = StarQuery(
            name="x", fact_table="lineorder",
            joins=[DimensionJoin(
                "customer", "lo_custkey", "c_custkey",
                snowflake=[DimensionJoin("supplier", "c_custkey",
                                         "s_suppkey")])],
            aggregates=[Aggregate("sum", Col("lo_revenue"), alias="r")])
        with pytest.raises(PlanningError):
            Session(hive).execute(ssb_snow)

    def test_multipass_rejects_snowflake(self, engine):
        query = snowflake_query()
        with pytest.raises(PlanningError):
            engine.execute_multipass(query, [["store"]])
