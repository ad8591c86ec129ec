"""Materialized aggregate store with subsumption reuse.

The hash-table cache (PR 5) and the frontend result cache (PR 8) only
pay off on *exact* repeats; dashboard workloads are families of
*related* aggregates over one star schema — the same joins and filters,
drilled down and rolled up along different group-by sets.  This module
keeps the **finest materialized answer** of each query family resident
and serves three kinds of requests without touching the fact table:

* **exact** — same family, same group-by set, every requested aggregate
  present in the stored entry: project and replay the stored rows;
* **rollup** — the stored group-by is a *strict superset* of the
  requested keys and every requested aggregate is re-aggregable
  (SUM of SUMs, SUM of COUNTs, MIN of MINs, MAX of MAXes; AVG is
  rewritten to SUM+COUNT by the session before the store ever sees a
  query): re-aggregate the stored rows in memory with the columnar-v2
  kernels (``np.add.at``/``np.minimum.at``/``np.maximum.at`` over
  first-seen group codes), never a row-at-a-time Python loop;
* **miss** — execute, and optionally :meth:`AggStore.admit` the full
  (limit-free) result under a byte budget with benefit-aware eviction.

A query's **family** is :attr:`repro.core.canonical.CanonicalQuery.
family` — the fact table, the normalised joins and the normalised fact
predicate.  Two queries in the same family filter provably identical
fact rows, which is what makes a rollup of one a byte-exact answer for
the other.

**Byte-identity is the bar, not approximation.** The reference engine
emits groups in fact-scan insertion order and then runs a *stable* sort
on the requested ORDER BY — an order a rollup cannot reproduce when the
sort keys tie.  The store therefore declines to serve (counted in
``declined``) whenever the requested ordering does not uniquely
determine the output: any adjacent tie on the full order-key tuples, or
an empty ORDER BY over more than one row (exact replays with the same
ORDER BY semantics as the stored execution are exempt — they replay the
engine's own permutation verbatim).  Rollup arithmetic must also be
exact, so re-aggregation is integer-only: any non-``int`` aggregate
value (or a sum that could overflow int64) declines to a miss instead
of serving a float whose addition order could differ from the engine's.

Budget, eviction loop, stamps and the lock are
:class:`~repro.serve.store.GenerationalStore`'s (region = family, key =
group set x aggregate identities); this module keeps only the matching,
rollup and ordering rules, the admission rules (no LIMIT, no AVG) and
the eviction *policy*.  Every operation takes the store lock exactly
once and serves from materialized rows only.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.canonical import CanonicalQuery
from repro.core.expressions import int64_safe
from repro.core.query import Aggregate, OrderKey, StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.serve.store import GenerationalStore, StoreEntry, StoreStats

#: Eviction scans this many oldest entries and drops the least useful.
EVICT_SCAN = 8

# --------------------------------------------------------------------- #
# Canonical keys: families, aggregate identities, order semantics.
# --------------------------------------------------------------------- #


def family_key(query: StarQuery) -> tuple:
    """The subsumption family of ``query``
    (:attr:`CanonicalQuery.family`)."""
    return CanonicalQuery(query).family


def agg_identity(agg: Aggregate) -> tuple:
    """What makes two aggregates compute the same values.  COUNT ignores
    its expression (every engine counts rows), everything else is
    ``(function, canonical expr)``; the alias is presentation only."""
    if agg.function == "count":
        return ("count",)
    return (agg.function, json.dumps(agg.expr.to_dict(), sort_keys=True))


def _order_semantics(order_by: list[OrderKey], group_by: list[str],
                     aggs: list[Aggregate]) -> tuple:
    """ORDER BY resolved to alias-independent identities, so a stored
    ordering and a requested ordering compare by meaning."""
    by_alias = {a.alias: a for a in aggs}
    out = []
    for key in order_by:
        if key.column in by_alias:
            out.append(("agg", agg_identity(by_alias[key.column]),
                        key.descending))
        else:
            out.append(("col", key.column, key.descending))
    return tuple(out)


# --------------------------------------------------------------------- #
# Decisions and provenance.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Provenance:
    """How a result was produced — attached to every served answer.

    ``source`` is one of ``executed`` / ``result_cache`` / ``agg_exact``
    / ``agg_rollup``; ``candidates`` are the group-by sets the
    subsumption matcher considered in the query's family;
    ``rolled_rows``/``rolled_bytes`` measure the materialized input a
    rollup re-aggregated, ``scanned_rows`` the fact rows an execution
    probed (0 for store-served answers — that is the whole point)."""

    source: str = "executed"
    candidates: tuple[tuple[str, ...], ...] = ()
    rolled_rows: int = 0
    rolled_bytes: int = 0
    scanned_rows: int = 0
    declined: str | None = None

    def to_dict(self) -> dict:
        return {"source": self.source,
                "candidates": [list(c) for c in self.candidates],
                "rolled_rows": self.rolled_rows,
                "rolled_bytes": self.rolled_bytes,
                "scanned_rows": self.scanned_rows,
                "declined": self.declined}

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        return cls(**{**data, "candidates": tuple(
            tuple(c) for c in data.get("candidates", ()))})


@dataclass(frozen=True)
class AggDecision:
    """The subsumption matcher's verdict for one query."""

    kind: str                                  # "exact"|"rollup"|"miss"
    result: QueryResult | None = None
    candidates: tuple[tuple[str, ...], ...] = ()
    rolled_rows: int = 0
    rolled_bytes: int = 0
    declined: str | None = None


@dataclass(frozen=True)
class AggStoreStats(StoreStats):
    """:class:`StoreStats` (``hits`` = exact + rollup) plus how the
    subsumption matcher served."""

    hits_exact: int = 0
    hits_rollup: int = 0
    declined: int = 0      # subsumable but tie/type-unsafe to serve
    rolled_rows: int = 0   # materialized rows re-aggregated, lifetime


@dataclass
class _AggEntry:
    group_set: frozenset
    group_cols: tuple[str, ...]     # stored column order of the keys
    agg_ids: tuple[tuple, ...]      # agg_identity per stored aggregate
    order_sem: tuple                # _order_semantics of the execution
    columns: tuple[str, ...]
    rows: list[tuple]               # full, ordered, limit-free
    cost: float                     # simulated seconds of the execute


def _benefit(entry: StoreEntry) -> float:
    """Reuse benefit per byte: how much simulated work this entry
    saves, scaled by how often it was used and how much budget it
    occupies. Eviction drops the lowest."""
    return (1 + entry.hits) * entry.value.cost / max(1, entry.nbytes)


# --------------------------------------------------------------------- #
# The store.
# --------------------------------------------------------------------- #


class AggStore(GenerationalStore):
    """Generation-stamped materialized aggregate store.

    ``budget_bytes`` bounds the pickled size of all materialized rows;
    past it, eviction scans the :data:`EVICT_SCAN` oldest entries and
    drops the one with the lowest :func:`_benefit` — plain LRU would
    happily evict the expensive fine-grained entry every coarser
    dashboard panel rolls up from.
    """

    GUARDED_FIELDS = GenerationalStore.GUARDED_FIELDS + (
        "_hits_exact", "_hits_rollup", "_declined", "_rolled_rows")

    def __init__(self, budget_bytes: int, *,
                 sanitize: bool = False) -> None:
        self._hits_exact = 0
        self._hits_rollup = 0
        self._declined = 0
        self._rolled_rows = 0
        super().__init__(budget_bytes, sanitize=sanitize)

    # ------------------------------------------------------------------ #
    # Matching and serving.
    # ------------------------------------------------------------------ #

    def fetch(self, query: StarQuery, *,
              any_order: bool = False) -> AggDecision:
        """Serve ``query`` from the store if subsumption allows.

        ``any_order=True`` relaxes the byte-identity ordering rules for
        callers that re-sort with a total order themselves (the
        session's AVG finalizer); everyone else gets the tie-safe
        behavior documented in the module docstring.
        """
        family = family_key(query)
        with self._lock:
            candidates, exact, rollup = self._match(family, query)
            if exact is not None:
                served = exact
                decision = self._serve_exact(exact.value, query,
                                             candidates, any_order)
            elif rollup is not None:
                served = rollup
                decision = self._serve_rollup(rollup, query, candidates,
                                              any_order)
            else:
                decision = AggDecision(kind="miss", candidates=candidates)
            if decision.result is None:
                self._misses += 1
                if decision.declined is not None:
                    self._declined += 1
                return decision
            # Recency is admission order (``tick`` stays put); reuse
            # shows up in the entry's benefit instead.
            served.hits += 1
            self._hits += 1
            if decision.kind == "exact":
                self._hits_exact += 1
            else:
                self._hits_rollup += 1
                self._rolled_rows += decision.rolled_rows
            return decision

    def peek(self, query: StarQuery) -> AggDecision:
        """The decision :meth:`fetch` would make — without serving rows,
        bumping counters, or touching entry recency (EXPLAIN's view)."""
        family = family_key(query)
        with self._lock:
            candidates, exact, rollup = self._match(family, query)
        kind = ("exact" if exact is not None
                else "rollup" if rollup is not None else "miss")
        return AggDecision(kind=kind, candidates=candidates)

    def _match(self, family: tuple, query: StarQuery) -> tuple[
            tuple, StoreEntry | None, StoreEntry | None]:
        """``family``'s group-by sets, its exact entry, and its smallest
        subsuming entry — among entries holding every requested
        aggregate (lock held)."""
        requested = frozenset(query.group_by)
        wanted = [agg_identity(a) for a in query.aggregates]
        slots = self._regions.get(family, {}).values()
        exact, rollup = None, None
        for slot in slots:
            entry = slot.value
            if not all(agg in entry.agg_ids for agg in wanted):
                continue
            if entry.group_set == requested:
                exact = slot
                break
            if (entry.group_set > requested
                    and (rollup is None
                         or len(entry.rows) < len(rollup.value.rows))):
                rollup = slot
        return (tuple(slot.value.group_cols for slot in slots),
                exact, rollup)

    def _serve_exact(self, entry: _AggEntry, query: StarQuery,
                     candidates: tuple, any_order: bool) -> AggDecision:
        positions = [entry.columns.index(c) for c in query.group_by]
        positions += [entry.agg_ids.index(agg_identity(a))
                      + len(entry.group_cols)
                      for a in query.aggregates]
        requested_sem = _order_semantics(query.order_by, query.group_by,
                                         query.aggregates)
        if any_order or (requested_sem == entry.order_sem
                         and entry.group_cols == tuple(query.group_by)):
            # Replay the stored execution's own permutation: the stable
            # sort the engine ran is byte-identical to the one this
            # request asks for (or the caller re-sorts anyway). Its
            # tie-break — the whole order, without an ORDER BY — follows
            # the group-by column order, so that must match too.
            rows = [tuple(row[p] for p in positions)
                    for row in entry.rows]
            rows = rows[:query.limit] if query.limit is not None else rows
            return AggDecision(
                kind="exact", candidates=candidates,
                result=self._result(query, rows))
        ordered, reason = self._reorder(entry, positions, query)
        if ordered is None:
            return AggDecision(kind="miss", candidates=candidates,
                               declined=reason)
        return AggDecision(kind="exact", candidates=candidates,
                           result=self._result(query, ordered))

    def _serve_rollup(self, slot: StoreEntry, query: StarQuery,
                      candidates: tuple, any_order: bool) -> AggDecision:
        entry = slot.value
        group_pos = [entry.columns.index(c) for c in query.group_by]
        rows = entry.rows
        # First-seen group codes over the stored (finer) rows.
        code_of: dict[tuple, int] = {}
        codes = np.empty(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            key = tuple(row[p] for p in group_pos)
            codes[i] = code_of.setdefault(key, len(code_of))
        n_groups = len(code_of)
        outputs: list[list] = []
        for agg in query.aggregates:
            pos = (entry.agg_ids.index(agg_identity(agg))
                   + len(entry.group_cols))
            vals = [row[pos] for row in rows]
            if not all(type(v) is int for v in vals):
                return AggDecision(
                    kind="miss", candidates=candidates,
                    declined="non-integer aggregate values")
            if agg.function in ("sum", "count"):
                # COUNT of a coarser group is the SUM of the stored
                # per-group counts — same kernel as SUM.
                # Sums that could leave int64 decline rollup instead of
                # risking silent overflow in the numpy kernel.
                if not int64_safe(sum(abs(v) for v in vals)):
                    return AggDecision(
                        kind="miss", candidates=candidates,
                        declined="sum magnitude unsafe for int64")
                acc = np.zeros(n_groups, dtype=np.int64)
                np.add.at(acc, codes, np.asarray(vals, dtype=np.int64))
            elif agg.function == "min":
                acc = np.full(n_groups, np.iinfo(np.int64).max,
                              dtype=np.int64)
                np.minimum.at(acc, codes,
                              np.asarray(vals, dtype=np.int64))
            else:
                acc = np.full(n_groups, np.iinfo(np.int64).min,
                              dtype=np.int64)
                np.maximum.at(acc, codes,
                              np.asarray(vals, dtype=np.int64))
            outputs.append(acc.tolist())
        rolled = [key + tuple(out[code] for out in outputs)
                  for key, code in code_of.items()]
        ordered, reason = self._order_rolled(rolled, query, any_order)
        if ordered is None:
            return AggDecision(kind="miss", candidates=candidates,
                               declined=reason)
        return AggDecision(
            kind="rollup", candidates=candidates,
            result=self._result(query, ordered),
            rolled_rows=len(rows), rolled_bytes=slot.nbytes)

    def _reorder(self, entry: _AggEntry, positions: list[int],
                 query: StarQuery
                 ) -> tuple[list[tuple] | None, str | None]:
        """Exact entry, different ORDER BY: project, re-sort, and serve
        only when the requested ordering is tie-free (the engine's
        stable sort breaks ties by an insertion order we do not have)."""
        projected = [tuple(row[p] for p in positions)
                     for row in entry.rows]
        return self._order_rolled(projected, query, any_order=False)

    def _order_rolled(self, rows: list[tuple], query: StarQuery,
                      any_order: bool
                      ) -> tuple[list[tuple] | None, str | None]:
        columns = list(query.group_by) + [a.alias
                                          for a in query.aggregates]
        if any_order:
            sliced = (rows[:query.limit] if query.limit is not None
                      else rows)
            return sliced, None
        if not query.order_by:
            if len(rows) > 1:
                return None, "no ORDER BY: row order is engine-defined"
            return rows, None
        ordered = apply_order_by(rows, columns, query.order_by, None)
        key_pos = [columns.index(k.column) for k in query.order_by]
        for prev, cur in zip(ordered, ordered[1:]):
            if all(prev[p] == cur[p] for p in key_pos):
                return None, "ORDER BY ties: tie-break is engine-defined"
        if query.limit is not None:
            ordered = ordered[:query.limit]
        return ordered, None

    @staticmethod
    def _result(query: StarQuery, rows: list[tuple]) -> QueryResult:
        return QueryResult(
            query_name=query.name,
            columns=list(query.group_by) + [a.alias
                                            for a in query.aggregates],
            rows=rows,
            simulated_seconds=0.0,
            breakdown={})

    # ------------------------------------------------------------------ #
    # Admission rules and the eviction policy.
    # ------------------------------------------------------------------ #

    def admit(self, query: StarQuery, result: QueryResult, *,
              cost: float = 0.0,
              generation: int | None = None) -> bool:
        """Materialize ``result`` (a *complete*, limit-free execution of
        ``query``) for future exact/rollup serves, replacing an entry
        with the same group set and aggregate identities.

        Returns False without storing when ``query`` carries a LIMIT
        (a truncated answer cannot roll up), when AVG survived
        unrewritten, or when the store refuses the ``put`` (superseded
        ``generation`` stamp — a racing ``reload_catalog`` wins — or
        rows that alone bust the whole budget)."""
        if query.limit is not None:
            return False
        if any(a.function == "avg" for a in query.aggregates):
            return False   # store-time invariant: AVG is SUM+COUNT
        rows = list(result.rows)
        agg_ids = tuple(agg_identity(a) for a in query.aggregates)
        entry = _AggEntry(
            group_set=frozenset(query.group_by),
            group_cols=tuple(query.group_by),
            agg_ids=agg_ids,
            order_sem=_order_semantics(query.order_by, query.group_by,
                                       query.aggregates),
            columns=tuple(result.columns),
            rows=rows,
            cost=float(cost))
        return self.put(family_key(query),
                        (entry.group_set, tuple(sorted(agg_ids))),
                        entry, len(pickle.dumps(rows)),
                        generation=generation)

    def _victim(self, region: Hashable) -> tuple[Hashable, Hashable]:
        """The least beneficial of the :data:`EVICT_SCAN` oldest
        entries (LRU-by-benefit)."""
        oldest = sorted(
            ((slot, family, key)
             for family, slots in self._regions.items()
             for key, slot in slots.items()),
            key=lambda item: item[0].tick)[:EVICT_SCAN]
        _, family, key = min(oldest, key=lambda item: _benefit(item[0]))
        return family, key

    def stats(self) -> AggStoreStats:
        with self._lock:
            return AggStoreStats(
                **self._snapshot(),
                hits_exact=self._hits_exact,
                hits_rollup=self._hits_rollup,
                declined=self._declined,
                rolled_rows=self._rolled_rows)
