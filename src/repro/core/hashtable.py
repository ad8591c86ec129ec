"""Dimension hash tables (paper section 4.2).

Built once per node per query: scan the dimension table, keep only rows
passing the dimension predicate, and map the primary key to the tuple of
*auxiliary columns* the query needs from that dimension (the group-by
columns it contributes). Once built, the table is read-only, so it can be
shared by every join thread without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.common.schema import Schema
from repro.core.expressions import Columns, Predicate
from repro.storage.columnvector import (
    NumericVector,
    as_index_array,
    gather_values,
)

#: Dense-lookup bounds: keys must be ints whose span is at most
#: max(_DENSE_MIN_SLOTS, _DENSE_SPREAD_FACTOR * entries) slots, so a
#: sparse key space can never blow up memory.
_DENSE_MIN_SLOTS = 1024
_DENSE_SPREAD_FACTOR = 8


@dataclass
class HashTableStats:
    """Build statistics, consumed by the cost and memory models."""

    dimension: str
    rows_scanned: int
    entries: int
    aux_arity: int
    #: Rows filtered one by one in Python (no mask; snowflake branch).
    rows_rowwise: int = 0

    def estimated_bytes(self, bytes_per_entry: float) -> float:
        """In-memory footprint under a given per-entry overhead model."""
        return self.entries * bytes_per_entry


class DimensionHashTable:
    """pk -> aux-tuple mapping for one dimension of one query."""

    def __init__(self, dimension: str, fact_fk: str, table: dict,
                 aux_columns: tuple[str, ...], stats: HashTableStats):
        self.dimension = dimension
        self.fact_fk = fact_fk
        self._table = table
        self.aux_columns = aux_columns
        self.stats = stats
        # Built eagerly: published tables are frozen by the sanitizer,
        # so a lazily-attached cache would raise on first probe.
        self._dense = self._build_dense(table)

    @staticmethod
    def _build_dense(table: dict):
        """A code-space view of the table for vectorized probes.

        Dimension primary keys are dense small ints (datekey, custkey
        …), so the dict maps onto an offset array: ``lookup[key - lo]``
        is the entry's position in ``aux_rows`` or -1 for a join miss.
        Returns ``(lookup, lo, hi, aux_rows)``, or ``None`` when keys
        are not ints or too sparse (the dict path still works).
        """
        if type(next(iter(table), None)) is not int:
            return None
        keys = np.asarray(list(table))
        if keys.dtype.kind != "i":
            return None  # a float, str or over-wide key among the ints
        lo, hi = int(keys.min()), int(keys.max())
        spread = hi - lo + 1
        if spread > max(_DENSE_MIN_SLOTS,
                        _DENSE_SPREAD_FACTOR * len(table)):
            return None
        lookup = np.full(spread, -1, dtype=np.int64)
        lookup[keys - lo] = np.arange(len(keys))
        return lookup, lo, hi, tuple(table.values())

    def _dense_for(self, keys: Sequence[Any]):
        """The dense view when ``keys`` can index it — a typed buffer of
        integers — else ``None``: the dict leg then gives any other key
        (a float FK, a hand-built list) exact ``probe`` semantics."""
        if (isinstance(keys, NumericVector)
                and keys.data.dtype.kind in "iu"):
            return self._dense
        return None

    def hit_mask(self, keys: Sequence[Any]) -> np.ndarray | None:
        """Join-hit verdicts for a whole FK column in one pass.

        The mask stage of the block kernel: the caller ANDs this with
        the fact-predicate mask before materializing anything. ``None``
        when the column is not an integer typed buffer or the table has
        no dense view — ``probe_block``'s dict leg still applies.
        """
        dense = self._dense_for(keys)
        if dense is None:
            return None
        lookup, lo, hi, _ = dense
        data = keys.data
        in_range = (data >= lo) & (data <= hi)
        offsets = np.where(in_range, data - lo, 0)
        return in_range & (lookup[offsets] >= 0)

    @classmethod
    def from_columns(cls, dimension: str, fact_fk: str,
                     columns: Columns, num_rows: int, dim_pk: str,
                     predicate: Predicate, aux_columns: Sequence[str],
                     ) -> "DimensionHashTable":
        """Filter ``num_rows`` rows held by column (typed buffers or
        plain lists) by ``predicate`` — one mask over the dimension
        where it has one, row by row where not, as on the fact side —
        and key the survivors by ``dim_pk``. Keys and aux values are
        plain Python scalars: key types feed :meth:`probe`, value types
        the answer."""
        mask = predicate.evaluate_mask(columns, num_rows)
        survivors = (np.flatnonzero(mask) if mask is not None else
                     predicate.evaluate_block(columns, range(num_rows)))
        keys = gather_values(columns[dim_pk], survivors)
        aux = [gather_values(columns[name], survivors)
               for name in aux_columns]
        entries = dict(zip(keys, zip(*aux))) if aux \
            else dict.fromkeys(keys, ())
        if len(entries) != len(keys):
            seen: set = set()
            key = next(k for k in keys if k in seen or seen.add(k))
            raise QueryError(f"duplicate primary key {key!r} in "
                             f"dimension {dimension!r}")
        stats = HashTableStats(
            dimension=dimension, rows_scanned=num_rows,
            entries=len(entries), aux_arity=len(aux_columns),
            rows_rowwise=0 if mask is not None else num_rows)
        return cls(dimension, fact_fk, entries, tuple(aux_columns), stats)

    @classmethod
    def build(cls, dimension: str, fact_fk: str, schema: Schema,
              rows: Sequence[Sequence[Any]], dim_pk: str,
              predicate: Predicate,
              aux_columns: Sequence[str]) -> "DimensionHashTable":
        """:meth:`from_columns` over row tuples in ``schema`` order."""
        columns = {
            name: list(map(itemgetter(schema.index_of(name)), rows))
            for name in {dim_pk, *predicate.columns(), *aux_columns}}
        return cls.from_columns(dimension, fact_fk, columns, len(rows),
                                dim_pk, predicate, aux_columns)

    @classmethod
    def build_snowflake(cls, join, schemas: dict, tables: dict,
                        aux_columns: Sequence[str],
                        ) -> "DimensionHashTable":
        """Build a hash table for a snowflake branch.

        ``join`` is a :class:`~repro.core.query.DimensionJoin` whose
        ``snowflake`` sub-joins normalize parts of the dimension into
        separate tables; the branch is denormalized here, at build time,
        so probing stays a single lookup. ``schemas``/``tables`` map
        every table in the branch to its schema/rows; ``aux_columns``
        may come from any table in the branch.
        """
        flattened = flatten_dimension(join, schemas, tables)
        table: dict[Any, tuple] = {}
        for key, row in flattened.items():
            table[key] = tuple(row[c] for c in aux_columns)
        stats = HashTableStats(
            dimension=join.dimension,
            rows_scanned=len(tables[join.dimension]),
            entries=len(table), aux_arity=len(aux_columns),
            rows_rowwise=sum(len(tables[t]) for t in join.all_tables()))
        return cls(join.dimension, join.fact_fk, table,
                   tuple(aux_columns), stats)

    def probe(self, key: Any) -> tuple | None:
        """Return the aux tuple for ``key`` or ``None`` on join miss."""
        return self._table.get(key)

    def probe_block(self, keys: Sequence[Any], selection: Sequence[int],
                    ) -> tuple[Sequence[int], list[tuple]]:
        """Probe a whole column of foreign keys at selected positions.

        Returns (surviving positions, their aux tuples) — the block
        counterpart of calling :meth:`probe` per row. On an integer key
        buffer with a dense view the whole probe runs in numpy: one
        bounds-checked gather. Otherwise (the dict leg) the selected
        keys are gathered once and looked up one by one.
        """
        dense = self._dense_for(keys)
        if dense is not None:
            lookup, lo, hi, aux_rows = dense
            sel = as_index_array(selection)
            data = keys.data[sel]
            in_range = (data >= lo) & (data <= hi)
            entry = lookup[np.where(in_range, data - lo, 0)]
            hit = in_range & (entry >= 0)
            return (sel[hit],
                    [aux_rows[j] for j in entry[hit].tolist()])
        get = self._table.get
        positions: list[int] = []
        aux_out: list[tuple] = []
        add_pos = positions.append
        add_aux = aux_out.append
        for i, key in zip(selection, gather_values(keys, selection)):
            aux = get(key)
            if aux is not None:
                add_pos(i)
                add_aux(aux)
        return positions, aux_out

    def gather_aux(self, keys: Sequence[Any],
                   selection: Sequence[int]) -> list[tuple]:
        """Aux tuples for positions already known to hit (no filtering)."""
        dense = self._dense_for(keys)
        if dense is not None:
            lookup, lo, _hi, aux_rows = dense
            entry = lookup[keys.data[as_index_array(selection)] - lo]
            return [aux_rows[j] for j in entry.tolist()]
        get = self._table.get
        return [get(key) for key in gather_values(keys, selection)]

    def __contains__(self, key: Any) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (f"DimensionHashTable({self.dimension}, "
                f"{len(self._table)} entries, aux={self.aux_columns})")


def flatten_dimension(join, schemas: dict, tables: dict,
                      ) -> dict[Any, dict[str, Any]]:
    """Denormalize a snowflake branch into pk -> {column: value} rows.

    Rows failing any predicate in the branch (the dimension's own or a
    sub-dimension's, inner-join semantics) are dropped. Duplicate
    primary keys raise :class:`QueryError`.
    """
    schema: Schema = schemas[join.dimension]
    rows = tables[join.dimension]
    sub_lookups = []
    for sub in join.snowflake:
        # ``sub.fact_fk`` names the FK column in *this* (parent) table.
        if sub.fact_fk not in schema:
            raise QueryError(
                f"snowflake key {sub.fact_fk!r} not in "
                f"{join.dimension!r}")
        sub_lookups.append(
            (schema.index_of(sub.fact_fk),
             flatten_dimension(sub, schemas, tables)))

    pk_index = schema.index_of(join.dim_pk)
    names = schema.names
    out: dict[Any, dict[str, Any]] = {}
    for row in rows:
        flat = dict(zip(names, row))
        if not join.predicate.evaluate(flat.__getitem__):
            continue
        miss = False
        for fk_index, lookup in sub_lookups:
            sub_row = lookup.get(row[fk_index])
            if sub_row is None:
                miss = True
                break
            flat.update(sub_row)
        if miss:
            continue
        key = row[pk_index]
        if key in out:
            raise QueryError(
                f"duplicate primary key {key!r} in dimension "
                f"{join.dimension!r}")
        out[key] = flat
    return out
