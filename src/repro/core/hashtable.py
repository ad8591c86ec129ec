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
from repro.storage.dimcopy import decode_dimension_copy

#: Dense-lookup bounds: keys must be ints whose span is at most
#: max(_DENSE_MIN_SLOTS, _DENSE_SPREAD_FACTOR * entries) slots, so a
#: sparse key space can never blow up memory.
_DENSE_MIN_SLOTS = 1024
_DENSE_SPREAD_FACTOR = 8

_INT64_MIN = int(np.iinfo(np.int64).min)


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
        self._dense = _DenseView.build(table, len(aux_columns))

    def _dense_for(self, keys: Sequence[Any]) -> "_DenseView | None":
        """The dense view when ``keys`` can index it — a typed buffer of
        integers — else ``None``: the dict leg then gives any other key
        (a float FK, a hand-built list) exact ``probe`` semantics."""
        if (isinstance(keys, NumericVector)
                and keys.data.dtype.kind in "iu"):
            return self._dense
        return None

    def hit_mask(self, keys: Sequence[Any]) -> np.ndarray | None:
        """Join-hit verdicts for a whole FK column in one gather.

        The block kernel's first mask stage when the query has no fact
        predicate. ``None`` when the column is not an integer typed
        buffer or the table has no dense view — ``probe_block``'s dict
        leg still applies.
        """
        dense = self._dense_for(keys)
        if dense is None:
            return None
        return dense.hits(keys.data)

    def select_hits(self, keys: Sequence[Any], selection: Sequence[int],
                    ) -> np.ndarray | None:
        """The positions of ``selection`` whose keys hit, testing only
        those keys (the early-out at survivor grain: a later table never
        looks at rows an earlier stage already dropped). ``None`` when
        :meth:`hit_mask` would be."""
        dense = self._dense_for(keys)
        if dense is None:
            return None
        sel = as_index_array(selection)
        return sel[dense.hits(keys.data[sel])]

    def entries_at(self, keys: Sequence[Any], selection: Sequence[int],
                   ) -> np.ndarray | None:
        """Dense entry positions of selected keys already known to hit —
        indexes into :meth:`aux_codes`' arrays — or ``None`` without a
        dense view for ``keys``."""
        dense = self._dense_for(keys)
        if dense is None:
            return None
        return dense.entries(keys.data[as_index_array(selection)])

    def aux_codes(self, aux_index: int) -> tuple[np.ndarray, int]:
        """(code per dense entry, number of codes) of one aux column:
        equal values share a code. Only valid while a dense view exists
        (:meth:`entries_at` returned positions)."""
        dense = self._dense
        return dense.aux_codes[aux_index], dense.aux_cards[aux_index]

    def aux_values(self, entries: np.ndarray, aux_index: int) -> list:
        """Aux column ``aux_index`` of the given dense entries."""
        aux_rows = self._dense.aux_rows
        return [aux_rows[j][aux_index] for j in entries.tolist()]

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

    @classmethod
    def from_branch(cls, join, schemas: dict[str, Schema],
                    decoded: dict[str, tuple[int, Columns]],
                    aux_columns: Sequence[str]) -> "DimensionHashTable":
        """The table of ``join``'s branch from its tables as
        :func:`decode_branch` returned them: one mask over a plain
        dimension, :meth:`build_snowflake` over a snowflake branch."""
        if join.snowflake:
            return cls.build_snowflake(
                join, schemas,
                {name: list(zip(*columns.values()))
                 for name, (_, columns) in decoded.items()}, aux_columns)
        rows, columns = decoded[join.dimension]
        return cls.from_columns(join.dimension, join.fact_fk, columns,
                                rows, join.dim_pk, join.predicate,
                                aux_columns)

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
            sel = as_index_array(selection)
            data = keys.data[sel]
            hit = dense.hits(data)
            aux_rows = dense.aux_rows
            entries = dense.entries(data[hit]).tolist()
            return sel[hit], [aux_rows[j] for j in entries]
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
        entries = self.entries_at(keys, selection)
        if entries is not None:
            aux_rows = self._dense.aux_rows
            return [aux_rows[j] for j in entries.tolist()]
        get = self._table.get
        return [get(key) for key in gather_values(keys, selection)]

    def __contains__(self, key: Any) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (f"DimensionHashTable({self.dimension}, "
                f"{len(self._table)} entries, aux={self.aux_columns})")


class _DenseView:
    """A code-space view of a table for vectorized probes.

    Dimension primary keys are dense small ints (datekey, custkey …),
    so the dict maps onto offset arrays over ``[lo, hi]``:

    * ``lookup[key - lo]`` — the entry's position in ``aux_rows``, or -1
      for a join miss;
    * ``bitmap[key - lo + 1]`` — the hit verdict, padded with a ``False``
      slot at each end, so a clipped gather answers for keys below and
      above the range without a bounds test;
    * ``aux_codes[i]`` — per entry, a code for aux column ``i`` (equal
      values share one; ``aux_cards[i]`` codes in all): the group codes
      of the block kernel's grouped emission.

    Every array is read-only: tables are cached across queries and
    shared by join threads.
    """

    __slots__ = ("lookup", "lo", "bitmap", "aux_rows", "aux_codes",
                 "aux_cards")

    def __init__(self, lookup: np.ndarray, lo: int, aux_rows: tuple,
                 arity: int):
        self.lookup = _read_only(lookup)
        self.lo = lo
        bitmap = np.zeros(len(lookup) + 2, dtype=bool)
        bitmap[1:-1] = lookup >= 0
        self.bitmap = _read_only(bitmap)
        self.aux_rows = aux_rows
        columns = [value_codes([row[index] for row in aux_rows])
                   for index in range(arity)]
        self.aux_codes = tuple(_read_only(codes) for codes, _ in columns)
        self.aux_cards = tuple(count for _, count in columns)

    @classmethod
    def build(cls, table: dict, arity: int) -> "_DenseView | None":
        """The view of ``table``, or ``None`` when its keys are not ints
        or too sparse (the dict path still works)."""
        if type(next(iter(table), None)) is not int:
            return None
        keys = np.asarray(list(table))
        if keys.dtype.kind != "i":
            return None  # a float, str or over-wide key among the ints
        lo, hi = int(keys.min()), int(keys.max())
        if lo == _INT64_MIN:
            return None  # the low padding slot's key must be an int64
        spread = hi - lo + 1
        if spread > max(_DENSE_MIN_SLOTS,
                        _DENSE_SPREAD_FACTOR * len(table)):
            return None
        lookup = np.full(spread, -1, dtype=np.int64)
        lookup[keys - lo] = np.arange(len(keys))
        return cls(lookup, lo, tuple(table.values()), arity)

    def hits(self, data: np.ndarray) -> np.ndarray:
        """Hit verdicts for an integer key buffer: one gather.

        Offsets ``key - (lo - 1)`` are taken in int64, so narrow and
        unsigned buffers never overflow. An int64 key whose offset wraps
        lands below slot 0 (it was far above ``hi``) or at or above the
        last slot (far below ``lo``), and the clip maps both onto a
        padding ``False``.
        """
        if data.dtype == np.uint64:
            # Above hi + 1 (or 0, when every key is negative) no key can
            # hit; clamp there so the int64 cast below stays exact.
            data = np.minimum(data, np.uint64(
                max(self.lo + len(self.lookup), 0)))
        offsets = np.subtract(data, self.lo - 1, dtype=np.int64)
        return np.take(self.bitmap, offsets, mode="clip")

    def entries(self, data: np.ndarray) -> np.ndarray:
        """Entry positions of keys known to hit."""
        return self.lookup[np.subtract(data, self.lo, dtype=np.int64)]


def value_codes(values: Sequence[Any]) -> tuple[np.ndarray, int]:
    """(int64 code per value, number of codes) for plain Python values:
    equal values (by ``==``, as a combiner groups keys) share a code,
    numbered in first-seen order."""
    code_of = {value: code
               for code, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64,
                        count=len(values))
    return codes, len(code_of)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def decode_branch(join, schemas: dict[str, Schema],
                  copies: Sequence[bytes], aux_columns: Sequence[str],
                  ) -> dict[str, tuple[int, Columns]]:
    """(row count, columns) of each table of ``join``'s branch, decoded
    from its columnar copy (one per ``join.all_tables()``, in the
    node-local copy's format): only the columns a build reads, or whole
    tables for a snowflake branch, which is flattened row by row."""
    wanted = {join.dim_pk, *join.predicate.columns(), *aux_columns}
    return {name: decode_dimension_copy(
                schemas[name], blob,
                schemas[name].names if join.snowflake else wanted)
            for name, blob in zip(join.all_tables(), copies)}


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
