#!/usr/bin/env python3
"""Clydesdale beyond SSB: define your own star schema, load it, and run
ad-hoc star-join queries through the public API.

The scenario: a web-shop clickstream fact table (pageviews) with two
dimensions (pages, visitors). This exercises exactly the paper's data
shape — a big fact table, small dimensions, aggregate queries — with a
schema the SSB loader has never seen.
"""

import random

from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import Col, Comparison, InList
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.serve.session import Session
from repro.ssb.loader import Catalog, write_dim_cache
from repro.storage.cif import write_cif_table
from repro.storage.rowformat import write_row_table

PAGEVIEWS = Schema([
    ("pv_id", DataType.INT64),
    ("pv_page_id", DataType.INT32),
    ("pv_visitor_id", DataType.INT32),
    ("pv_dwell_ms", DataType.INT64),
    ("pv_clicks", DataType.INT32),
])

PAGES = Schema([
    ("pg_id", DataType.INT32),
    ("pg_section", DataType.STRING),
    ("pg_title", DataType.STRING),
])

VISITORS = Schema([
    ("vi_id", DataType.INT32),
    ("vi_country", DataType.STRING),
    ("vi_tier", DataType.STRING),
])

SECTIONS = ("news", "sports", "shop", "forum")
COUNTRIES = ("DE", "US", "JP", "BR", "IN")
TIERS = ("free", "plus", "pro")


def generate(num_views: int = 20_000, seed: int = 9):
    rng = random.Random(seed)
    pages = [(i, SECTIONS[i % len(SECTIONS)], f"Page {i}")
             for i in range(1, 201)]
    visitors = [(i, COUNTRIES[rng.randrange(len(COUNTRIES))],
                 TIERS[rng.randrange(len(TIERS))])
                for i in range(1, 2_001)]
    views = [(i, 1 + rng.randrange(200), 1 + rng.randrange(2_000),
              rng.randrange(120_000), rng.randrange(12))
             for i in range(num_views)]
    return views, pages, visitors


def load(fs: MiniDFS, views, pages, visitors) -> Catalog:
    """The Clydesdale layout by hand: CIF fact, cached dimensions."""
    catalog = Catalog(root="/web")
    catalog.tables["pageviews"] = write_cif_table(
        fs, "pageviews", "/web/pageviews", PAGEVIEWS, views,
        row_group_size=4_000)
    catalog.tables["pages"] = write_row_table(
        fs, "pages", "/web/pages", PAGES, pages)
    catalog.tables["visitors"] = write_row_table(
        fs, "visitors", "/web/visitors", VISITORS, visitors)
    # Cache the dimensions on every node's local disk (paper section 4).
    for name, schema, rows in (("pages", PAGES, pages),
                               ("visitors", VISITORS, visitors)):
        write_dim_cache(fs, name, schema, rows)
    return catalog


def main() -> None:
    views, pages, visitors = generate()
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = load(fs, views, pages, visitors)
    engine = ClydesdaleEngine(fs, catalog)

    query = StarQuery(
        name="engagement-by-section-and-tier",
        fact_table="pageviews",
        joins=[
            DimensionJoin("pages", "pv_page_id", "pg_id",
                          InList("pg_section", ["news", "shop"])),
            DimensionJoin("visitors", "pv_visitor_id", "vi_id",
                          Comparison("vi_country", "=", "DE")),
        ],
        fact_predicate=Comparison("pv_dwell_ms", ">", 10_000),
        aggregates=[
            Aggregate("sum", Col("pv_clicks"), alias="clicks"),
            Aggregate("count", Col("pv_id"), alias="views"),
            Aggregate("max", Col("pv_dwell_ms"), alias="longest_ms"),
        ],
        group_by=["pg_section", "vi_tier"],
        order_by=[OrderKey("clicks", descending=True)],
    )

    print("The ad-hoc star query:")
    print(query.to_sql())
    session = Session(engine)
    result = session.execute(query)
    print(f"\n{len(result.rows)} groups in "
          f"{result.simulated_seconds:.1f} simulated seconds:")
    print(result.pretty())

    stats = session.stats().execution
    print(f"\nScan read {stats.hdfs_bytes_read:,} bytes of "
          f"{len(PAGEVIEWS)}-column fact data — only the "
          f"4 columns the query touches, thanks to CIF projection.")


if __name__ == "__main__":
    main()
