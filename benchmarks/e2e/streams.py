"""Seeded request streams for the four workloads.

Everything the program under test receives is a
:class:`~repro.core.query.StarQuery` built here from ``--seed``; the
same seed gives the same stream (see :func:`digest`), a different seed
a different one.  A request carries the class the generator *intended*
(``fresh``/``repeat``/``relimit``/``rollup``/``avg``/``cold_shape``);
the harness classes it again by the provenance the program reports,
because a store may legitimately decline (ORDER BY ties) or have been
invalidated since.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.core.expressions import And, Comparison, TruePredicate
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.serve.routing import result_key
from repro.ssb.queries import FLIGHTS, flight_of, ssb_queries

#: Flights whose queries group by something, so they can be re-limited
#: and rolled up (flight 1 returns one row).
FAMILY_FLIGHTS = (2, 3, 4)
#: Above every lo_extendedprice (max 50 x 1899), so ``< BASE + k`` keeps
#: all rows while making the fact predicate — and with it the aggregate
#: store's family key — unique to request ``k``.
UNIQUE_BASE = 1_000_000
#: Reuse requests pick their family among this many most recent ones.
RECENCY_WINDOW = 8
#: ``drilldown``: families between two ``invalidate_cache()`` calls (the
#: write beside the reads), and the reuse requests that follow each
#: fresh query — exact counts per class, in seeded order.
INVALIDATE_EVERY = 25
#: (Exact-served forms are 56 % of them, so the median request sits
#: inside the exact-hit mode, not on the edge between two modes.)
DRILLDOWN_REUSE = {"relimit": 150, "rollup": 110, "avg": 40}
#: ``serve_open``: the mix, as exact counts per 40 consecutive requests
#: (20 % fresh, 30 % repeat, 25 % relimit, 22.5 % rollup, 2.5 %
#: cold_shape).  Requests that execute are 22.5 % of the mix, so the
#: 90th percentile falls inside the body of the executes' latencies,
#: where samples are dense; at 30 % fresh and 5 % cold_shape it read the
#: sparse upper tail (neighbouring samples 5 % apart) and jumped with it.
SERVE_CYCLE = {"fresh": 8, "repeat": 12, "relimit": 10, "rollup": 9,
               "cold_shape": 1}


@dataclass(frozen=True)
class Request:
    """One generated request: ``cls`` is the intended class, ``family``
    the ordinal of the fresh query it derives from (the flight number
    on the SSB workloads), ``root`` that fresh query (the query itself
    where it derives from none)."""

    cls: str
    family: int
    query: StarQuery
    root: StarQuery


def _cycles(rng: random.Random, items: list) -> Iterator:
    """``items`` over and over, each round in a fresh seeded order: the
    shares are exact in every window, only the order is random."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _counted(counts: dict[str, int]) -> list[str]:
    return [name for name, count in counts.items() for _ in range(count)]


def _family_bases() -> list[StarQuery]:
    queries = ssb_queries()
    return [queries[name] for flight in FAMILY_FLIGHTS
            for name in FLIGHTS[flight]]


def fresh_query(base: StarQuery, family: int) -> StarQuery:
    """``base`` under a fact predicate no earlier request used, so no
    cache or store can answer it."""
    unique = Comparison("lo_extendedprice", "<", UNIQUE_BASE + family)
    return (base.with_name(f"{base.name}#{family}")
            .with_fact_predicate(unique))


def unfenced(query: StarQuery) -> StarQuery:
    """``query`` without the fence :func:`fresh_query` put on it.  The
    fence keeps every fact row, so both return the same rows; to the
    program they are different queries, to the oracle one."""
    fence = query.fact_predicate
    if (isinstance(fence, Comparison) and fence.op == "<"
            and fence.column == "lo_extendedprice"
            and fence.literal >= UNIQUE_BASE):
        return query.with_fact_predicate(TruePredicate())
    return query


def _relimit(fresh: StarQuery, rng: random.Random) -> StarQuery:
    return fresh.with_limit(rng.randint(1, 20))


def _rollup(fresh: StarQuery, rng: random.Random) -> StarQuery:
    """A strict group-by subset, ordered by its own keys (tie-free, so
    the store may serve it)."""
    size = rng.randrange(len(fresh.group_by))
    subset = list(rng.choice(list(combinations(fresh.group_by, size))))
    return (fresh.with_order_by([OrderKey(c) for c in subset])
            .with_group_by(subset))


def _avg(fresh: StarQuery, rng: random.Random) -> StarQuery:
    """The AVG form of the family's measure, at the family's grain or a
    coarser one; the session rewrites it to SUM+COUNT."""
    shaped = fresh if rng.random() < 0.5 else _rollup(fresh, rng)
    return (shaped.with_order_by([OrderKey(c) for c in shaped.group_by])
            .with_aggregates([Aggregate("avg", a.expr, a.alias)
                              for a in shaped.aggregates]))


def _cold_shape(base: StarQuery, ordinal: int) -> StarQuery:
    """``base`` with a date-dimension predicate literal nobody used: a
    new join shape, so the routed worker builds a hash table."""
    joins = []
    for join in base.joins:
        if join.dimension == "date":
            fence = Comparison("d_datekey", ">=", 19920101 + ordinal)
            join = DimensionJoin(join.dimension, join.fact_fk,
                                 join.dim_pk,
                                 And([join.predicate, fence]))
        joins.append(join)
    return StarQuery(
        name=f"{base.name}#c{ordinal}", fact_table=base.fact_table,
        joins=joins, fact_predicate=base.fact_predicate,
        aggregates=list(base.aggregates), group_by=list(base.group_by),
        order_by=list(base.order_by), limit=base.limit)


_VARIANTS = {"relimit": _relimit, "rollup": _rollup, "avg": _avg}


def _recent(rng: random.Random, families: list[StarQuery]) -> int:
    """Index of a family from the recency window, newest favoured."""
    window = min(RECENCY_WINDOW, len(families))
    back = min(int(rng.expovariate(0.5)), window - 1)
    return len(families) - 1 - back


# --------------------------------------------------------------------- #
# The streams: iterators of *units*, the smallest piece a timed window
# runs whole (an SSB pass, a drilldown family).
# --------------------------------------------------------------------- #


def ssb_passes(seed: int) -> Iterator[list[Request]]:
    """Passes over the 13 SSB queries, each in its own shuffled order."""
    rng = random.Random(f"{seed}:ssb")
    queries = list(ssb_queries().values())
    while True:
        order = list(queries)
        rng.shuffle(order)
        yield [Request(f"flight{flight_of(q.name)}", flight_of(q.name), q, q)
               for q in order]


def drilldown_families(seed: int) -> Iterator[list[Request]]:
    """One fresh query, then the :data:`DRILLDOWN_REUSE` requests on
    recent families."""
    rng = random.Random(f"{seed}:drilldown")
    bases = _cycles(rng, _family_bases())
    families: list[StarQuery] = []
    while True:
        ordinal = len(families)
        fresh = fresh_query(next(bases), ordinal)
        families.append(fresh)
        unit = [Request("fresh", ordinal, fresh, fresh)]
        classes = _counted(DRILLDOWN_REUSE)
        rng.shuffle(classes)
        for cls in classes:
            target = _recent(rng, families)
            root = families[target]
            unit.append(Request(cls, target, _VARIANTS[cls](root, rng),
                                root))
        yield unit


def serve_requests(seed: int) -> Iterator[Request]:
    """The serving mix, one request at a time."""
    rng = random.Random(f"{seed}:serve")
    bases = _cycles(rng, _family_bases())
    families: list[StarQuery] = []
    cold = 0
    for cls in _cycles(rng, _counted(SERVE_CYCLE)):
        if cls == "cold_shape":
            cold += 1
            shaped = _cold_shape(next(bases), cold)
            yield Request(cls, -cold, shaped, shaped)
            continue
        if cls == "fresh" or not families:
            families.append(fresh_query(next(bases), len(families)))
            yield Request("fresh", len(families) - 1, families[-1],
                          families[-1])
            continue
        target = _recent(rng, families)
        root = families[target]
        query = root if cls == "repeat" else _VARIANTS[cls](root, rng)
        yield Request(cls, target, query, root)


def digest(requests) -> str:
    """A short hash of a request sequence: classes and whole queries."""
    sha = hashlib.sha256()
    for request in requests:
        sha.update(request.cls.encode())
        sha.update(result_key(request.query).encode())
    return sha.hexdigest()[:16]
