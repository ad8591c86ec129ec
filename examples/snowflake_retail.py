#!/usr/bin/env python3
"""Snowflake schemas on Clydesdale: a retail warehouse where the store
dimension is normalized into store -> city -> region tables.

The paper (section 4) notes most structured repositories are star *or
snowflake* schemas. Clydesdale handles snowflakes by denormalizing the
branch while building the dimension hash table — probing stays a single
lookup per fact row, so the join plan is unchanged.
"""

import random

from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import Col, Comparison
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.serve.session import Session
from repro.ssb.loader import Catalog, write_dim_cache
from repro.storage.cif import write_cif_table
from repro.storage.rowformat import write_row_table

SALES = Schema([("sl_id", DataType.INT64),
                ("sl_store_id", DataType.INT32),
                ("sl_units", DataType.INT32),
                ("sl_amount", DataType.INT64)])
STORE = Schema([("st_id", DataType.INT32),
                ("st_name", DataType.STRING),
                ("st_city_id", DataType.INT32)])
CITY = Schema([("ci_id", DataType.INT32),
               ("ci_name", DataType.STRING),
               ("ci_region_id", DataType.INT32)])
REGION = Schema([("r_id", DataType.INT32),
                 ("r_name", DataType.STRING)])

REGIONS = [(1, "NORTH"), (2, "SOUTH"), (3, "EAST"), (4, "WEST")]
CITY_NAMES = ("Aria", "Brookfield", "Calder", "Dunmore", "Eastvale",
              "Fairmont", "Glenrock", "Harborview")


def generate(seed: int = 31, num_sales: int = 25_000):
    rng = random.Random(seed)
    cities = [(i + 1, CITY_NAMES[i], 1 + i % 4)
              for i in range(len(CITY_NAMES))]
    stores = [(i, f"Store-{i:03d}", 1 + rng.randrange(len(cities)))
              for i in range(1, 61)]
    sales = [(i, 1 + rng.randrange(60), 1 + rng.randrange(12),
              500 + rng.randrange(9_500))
             for i in range(num_sales)]
    return sales, stores, cities


def main() -> None:
    sales, stores, cities = generate()
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = Catalog(root="/retail")
    catalog.tables["sales"] = write_cif_table(
        fs, "sales", "/retail/sales", SALES, sales, row_group_size=5_000)
    for name, schema, rows in (("store", STORE, stores),
                               ("city", CITY, cities),
                               ("region", REGION, REGIONS)):
        catalog.tables[name] = write_row_table(
            fs, name, f"/retail/{name}", schema, rows)
        write_dim_cache(fs, name, schema, rows)
    engine = ClydesdaleEngine(fs, catalog)

    # sales -> store -> city -> region, filtering two levels deep.
    query = StarQuery(
        name="revenue-by-region-and-city",
        fact_table="sales",
        joins=[DimensionJoin(
            "store", "sl_store_id", "st_id",
            snowflake=[DimensionJoin(
                "city", "st_city_id", "ci_id",
                snowflake=[DimensionJoin(
                    "region", "ci_region_id", "r_id",
                    Comparison("r_name", "!=", "WEST"))])])],
        fact_predicate=Comparison("sl_units", ">=", 3),
        aggregates=[Aggregate("sum", Col("sl_amount"), alias="revenue"),
                    Aggregate("count", Col("sl_id"), alias="sales")],
        group_by=["r_name", "ci_name"],
        order_by=[OrderKey("r_name"), OrderKey("revenue",
                                               descending=True)],
    )
    print("The snowflake query:")
    print(query.to_sql())
    result = Session(engine).execute(query)
    print(f"\n{len(result.rows)} groups in "
          f"{result.simulated_seconds:.1f} simulated seconds:")
    print(result.pretty())
    print("\nThe region predicate two joins away from the fact table was"
          "\napplied during the hash-table build — the probe phase never"
          "\nsaw the city or region tables.")


if __name__ == "__main__":
    main()
