"""Fact-table roll-in and roll-out (paper sections 2 and 8).

Clydesdale's storage argument against Llama: because the fact table is
*not* kept in any sorted order, rolling in new data is just appending
fresh CIF row groups, and rolling out old data is deleting the oldest
groups — no rewrite of existing data. Llama's sorted column-group
projections would require merging every projection of the whole fact
table on each roll-in.

This module implements both operations on live tables (queries keep
working across them) plus an analytic cost comparison against the
Llama-style organization, which `benchmarks/test_rollin_ablation.py`
turns into the design-choice ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import StorageError, ValidationError
from repro.hdfs.filesystem import MiniDFS
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.storage.cif import (
    column_path,
    group_descriptors,
    write_row_group,
)
from repro.storage.tablemeta import FORMAT_CIF, TableMeta


def append_fact_rows(fs: MiniDFS, meta: TableMeta,
                     rows: Sequence[Sequence]) -> TableMeta:
    """Roll in ``rows`` as fresh CIF row groups; existing data untouched.

    Returns the updated (and persisted) metadata. New groups respect the
    table's row-group size; the co-locating placement policy assigns the
    new groups their own anchor nodes.
    """
    if meta.format != FORMAT_CIF:
        raise StorageError("roll-in requires a CIF table")
    if not rows:
        return meta
    groups = group_descriptors(meta)
    next_id = (max(g["id"] for g in groups) + 1) if groups else 0
    size = meta.row_group_size
    dictionary = bool(meta.extras.get("dictionary", True))
    for start in range(0, len(rows), size):
        chunk = rows[start:start + size]
        write_row_group(fs, meta.directory, meta.schema, next_id, chunk,
                        dictionary=dictionary)
        groups.append({"id": next_id, "rows": len(chunk)})
        next_id += 1
    meta.num_rows += len(rows)
    meta.extras["groups"] = groups
    meta.extras["num_groups"] = len(groups)
    meta.save(fs)
    return meta


def roll_out_oldest(fs: MiniDFS, meta: TableMeta,
                    num_groups: int) -> tuple[TableMeta, int]:
    """Roll out the ``num_groups`` oldest row groups.

    Returns (updated meta, rows removed). Deleting whole groups frees
    their column files; no surviving data is rewritten.
    """
    if meta.format != FORMAT_CIF:
        raise StorageError("roll-out requires a CIF table")
    groups = group_descriptors(meta)
    if num_groups < 0 or num_groups > len(groups):
        raise StorageError(
            f"cannot roll out {num_groups} of {len(groups)} groups")
    victims, survivors = groups[:num_groups], groups[num_groups:]
    removed_rows = 0
    for descriptor in victims:
        for column in meta.schema.names:
            fs.delete(column_path(meta.directory, descriptor["id"],
                                  column))
        removed_rows += descriptor["rows"]
    meta.num_rows -= removed_rows
    meta.extras["groups"] = survivors
    meta.extras["num_groups"] = len(survivors)
    meta.save(fs)
    return meta, removed_rows


# --------------------------------------------------------------------- #
# The Llama comparison (paper section 2)
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class RollinCost:
    """Modeled cost of one roll-in batch under each organization."""

    clydesdale_seconds: float
    llama_seconds: float

    @property
    def llama_overhead(self) -> float:
        """How many times costlier the sorted organization is."""
        if self.clydesdale_seconds <= 0:
            return float("inf")
        return self.llama_seconds / self.clydesdale_seconds


def compare_rollin_cost(existing_bytes: float, batch_bytes: float,
                        num_sorted_projections: int = 4,
                        cost_model: CostModel | None = None,
                        workers: int = 8) -> RollinCost:
    """Model appending ``batch_bytes`` to a fact table of
    ``existing_bytes``.

    * Clydesdale: write the new row groups (replication pipeline) —
      independent of the existing table size.
    * Llama-style: each of the ``num_sorted_projections`` column-group
      projections is sorted by a foreign key, so the batch must be sorted
      and *merged* with the projection, re-reading and re-writing the
      whole projection (the paper: "Frequently requiring the entire fact
      table ... to be merged and rewritten to the filesystem is a
      prohibitive overhead").
    """
    cm = cost_model or DEFAULT_COST_MODEL
    if existing_bytes < 0 or batch_bytes < 0:
        raise ValidationError("sizes must be non-negative")
    write_bw = cm.hdfs_write_bytes_s * workers
    read_bw = cm.hdfs_scan_bytes_s * workers

    clydesdale = batch_bytes / write_bw

    projection_fraction = 1.0 / max(1, num_sorted_projections)
    merged_read = (existing_bytes * projection_fraction + batch_bytes) \
        * num_sorted_projections
    merged_write = merged_read
    llama = merged_read / read_bw + merged_write / write_bw

    return RollinCost(clydesdale_seconds=clydesdale,
                      llama_seconds=llama)
