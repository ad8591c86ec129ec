"""The Star Schema Benchmark: schemas, data generator, loader, queries."""

from repro.ssb.datagen import (
    NATIONS,
    REGIONS,
    SSBData,
    SSBGenerator,
    customer_count,
    lineorder_count,
    part_count,
    supplier_count,
)
from repro.ssb.loader import (
    Catalog,
    cache_dimensions_locally,
    dim_cache_name,
    load_as_text,
    load_for_clydesdale,
    load_for_hive,
    refresh_dim_cache,
    write_dim_cache,
)
from repro.ssb.queries import FLIGHTS, QUERY_NAMES, flight_of, ssb_queries
from repro.ssb.schema import (
    DIMENSIONS,
    FACT_TABLE,
    FOREIGN_KEYS,
    SCHEMAS,
)

__all__ = [
    "Catalog",
    "DIMENSIONS",
    "FACT_TABLE",
    "FLIGHTS",
    "FOREIGN_KEYS",
    "NATIONS",
    "QUERY_NAMES",
    "REGIONS",
    "SCHEMAS",
    "SSBData",
    "SSBGenerator",
    "cache_dimensions_locally",
    "customer_count",
    "dim_cache_name",
    "flight_of",
    "lineorder_count",
    "load_as_text",
    "load_for_clydesdale",
    "load_for_hive",
    "part_count",
    "refresh_dim_cache",
    "ssb_queries",
    "supplier_count",
    "write_dim_cache",
]
