"""One canonical form of a star query, projected four ways.

Every reuse layer keys on "the same query, up to what cannot change my
answer" — and each layer's notion of *cannot change* is a projection of
one normal form, not a normaliser of its own:

============  ==========================================  ================
projection    keeps                                       consumers
============  ==========================================  ================
``exact``     every field, as spelled                     result cache
``family``    fact table, joins, fact predicate           aggregate store
``shape``     fact table, joins, group-by *set*           warm-shard router
``table_key`` one join, its auxiliary column *set*        hash-table cache
============  ==========================================  ================

Joins and predicates are normalised once (AND/OR flattened, ``TRUE``
conjuncts dropped, operands sorted, joins order-free), so predicates
that provably filter the same rows compare equal in ``family``,
``shape`` and ``table_key`` alike: a query the router calls warm finds
its tables in the shard's cache.  ``exact`` is deliberately *not*
normalised — it also carries the result's name and row order.

A :class:`CanonicalQuery` costs one ``query.to_dict()``; projections are
computed on first use and memoised on the instance, which lives no
longer than the request that built it.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable

from repro.core.query import DimensionJoin, StarQuery


#: ``json.dumps(data, sort_keys=True)`` without building an encoder per
#: call (a projection dumps every join and AND/OR operand).
_dumps = json.JSONEncoder(sort_keys=True).encode


def normalize_predicate(data: dict) -> dict:
    """Canonicalize a predicate dict: flatten nested AND/OR, drop TRUE
    conjuncts, sort operands — so predicates that provably filter the
    same rows compare equal regardless of how they were spelled."""
    kind = data.get("kind")
    if kind in ("and", "or"):
        parts: list[dict] = []
        for part in data["parts"]:
            norm = normalize_predicate(part)
            if norm["kind"] == kind:
                parts.extend(norm["parts"])
            elif kind == "and" and norm["kind"] == "true":
                continue
            else:
                parts.append(norm)
        if not parts:
            return {"kind": "true"}
        parts.sort(key=_dumps)
        if len(parts) == 1:
            return parts[0]
        return {"kind": kind, "parts": parts}
    if kind == "not":
        return {"kind": "not", "inner": normalize_predicate(data["inner"])}
    return data


def _normalize_join(data: dict) -> dict:
    out = dict(data)
    out["predicate"] = normalize_predicate(data["predicate"])
    out["snowflake"] = [_normalize_join(sub)
                        for sub in data.get("snowflake", [])]
    return out


class CanonicalQuery:
    """The normal form of one :class:`StarQuery` and its projections."""

    def __init__(self, query: StarQuery) -> None:
        self._data = query.to_dict()

    @cached_property
    def exact(self) -> str:
        """The whole query: every field that can influence the returned
        rows or the result's ``query_name`` (sorted JSON)."""
        return _dumps(self._data)

    @cached_property
    def _joins(self) -> dict[str, str]:
        """dimension -> that join's normalised build recipe."""
        return {join["dimension"]: _dumps(_normalize_join(join))
                for join in self._data["joins"]}

    @cached_property
    def _star(self) -> tuple:
        return (self._data["fact_table"],
                tuple(sorted(self._joins.values())))

    @cached_property
    def family(self) -> tuple:
        """What fixes the fact rows a query aggregates.  Group-by,
        aggregates, order and limit are deliberately excluded — those
        are what subsumption matches *across*."""
        return self._star + (
            _dumps(normalize_predicate(self._data["fact_predicate"])),)

    @cached_property
    def shape(self) -> tuple:
        """What fixes the hash tables a worker builds.  The group-by
        *set* stands in for the per-join auxiliary columns (a superset
        of each, so distinct payloads never alias a shape)."""
        return self._star + (tuple(sorted(self._data["group_by"])),)

    def table_key(self, join: DimensionJoin,
                  aux_columns: Iterable[str]) -> tuple:
        """The hash-table cache key of ``join``'s table: its build
        recipe plus the payload columns, both order-free."""
        return ("clydesdale.ht", self._joins[join.dimension],
                tuple(sorted(aux_columns)))
