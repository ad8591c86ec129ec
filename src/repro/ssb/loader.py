"""Loading SSB data into mini-HDFS for each engine.

Clydesdale layout (paper section 4): the fact table in (Multi)CIF under a
co-locating placement policy; dimension tables as binary rows in HDFS
*and* cached, by column, on every node's local storage.

Hive layout (paper section 6.2): every table in RCFile format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.schema import Schema
from repro.hdfs.filesystem import MiniDFS
from repro.ssb.datagen import SSBData
from repro.ssb.schema import DIMENSIONS, FACT_TABLE, SCHEMAS
from repro.storage.cif import DEFAULT_ROW_GROUP_SIZE, write_cif_table
from repro.storage.dimcopy import encode_dimension_copy
from repro.storage.rcfile import write_rcfile_table
from repro.storage.rowformat import read_row_table, write_row_table
from repro.storage.tablemeta import FORMAT_ROWS, TableMeta
from repro.storage.textformat import write_text_table

#: Scratch-name prefix for node-local dimension caches.
DIM_CACHE_PREFIX = "dimcache:"

CLYDESDALE_ROOT = "/tables"
HIVE_ROOT = "/hive"
TEXT_ROOT = "/text"


@dataclass
class Catalog:
    """Table name -> metadata for one engine's data layout."""

    root: str
    tables: dict[str, TableMeta] = field(default_factory=dict)

    def meta(self, name: str) -> TableMeta:
        try:
            return self.tables[name]
        except KeyError as exc:
            raise KeyError(
                f"table {name!r} not loaded; have "
                f"{sorted(self.tables)}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.tables


def dim_cache_name(table: str) -> str:
    return f"{DIM_CACHE_PREFIX}{table}"


def write_dim_cache(fs: MiniDFS, table: str, schema: Schema,
                    rows: Sequence[Sequence[Any]],
                    node_id: str | None = None) -> None:
    """Write one dimension's node-local copy — by column, see
    :mod:`repro.storage.dimcopy` — to ``node_id``'s local storage, or
    to every live node's. The only writer of a ``dim_cache_name`` blob.
    """
    blob = encode_dimension_copy(schema, rows)
    name = dim_cache_name(table)
    for node in (fs.live_nodes() if node_id is None else (node_id,)):
        fs.datanode(node).scratch_write(name, blob)


def cache_dimensions_locally(fs: MiniDFS, data: SSBData) -> None:
    """Copy each dimension table onto every node's local storage.

    Mirrors the paper: "Dimension tables are also cached on the local
    storage of each node." Nodes that later lose their copy can re-fetch
    from the HDFS master copy (see ``refresh_dim_cache``).
    """
    for table in DIMENSIONS:
        write_dim_cache(fs, table, SCHEMAS[table], data.tables()[table])


def refresh_dim_cache(fs: MiniDFS, catalog: Catalog, node_id: str) -> int:
    """Restore one node's dimension caches from the HDFS master copies
    — every row-format table of the catalog, SSB's or a hand-loaded
    star's.

    Returns the number of tables restored. Used after a node recovers
    from a disk failure (paper section 4).
    """
    restored = 0
    for table, meta in catalog.tables.items():
        if meta.format != FORMAT_ROWS:
            continue
        write_dim_cache(fs, table, meta.schema,
                        read_row_table(fs, meta.directory), node_id)
        restored += 1
    return restored


def load_for_clydesdale(fs: MiniDFS, data: SSBData,
                        row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
                        root: str = CLYDESDALE_ROOT) -> Catalog:
    """Fact table in CIF; dimensions in HDFS rows + node-local caches."""
    catalog = Catalog(root=root)
    catalog.tables[FACT_TABLE] = write_cif_table(
        fs, FACT_TABLE, f"{root}/{FACT_TABLE}", SCHEMAS[FACT_TABLE],
        data.lineorder, row_group_size=row_group_size)
    for table in DIMENSIONS:
        catalog.tables[table] = write_row_table(
            fs, table, f"{root}/{table}", SCHEMAS[table],
            data.tables()[table])
    cache_dimensions_locally(fs, data)
    return catalog


def load_for_hive(fs: MiniDFS, data: SSBData,
                  row_group_size: int = 25_000,
                  root: str = HIVE_ROOT) -> Catalog:
    """All five tables in RCFile, Hive's configuration in the paper."""
    catalog = Catalog(root=root)
    for table, rows in data.tables().items():
        catalog.tables[table] = write_rcfile_table(
            fs, table, f"{root}/{table}", SCHEMAS[table], rows,
            row_group_size=row_group_size)
    return catalog


def load_as_text(fs: MiniDFS, data: SSBData,
                 root: str = TEXT_ROOT) -> Catalog:
    """dbgen-style pipe-delimited text (for size comparisons and ETL)."""
    catalog = Catalog(root=root)
    for table, rows in data.tables().items():
        catalog.tables[table] = write_text_table(
            fs, table, f"{root}/{table}", SCHEMAS[table], rows)
    return catalog
