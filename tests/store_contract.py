"""One store contract, four configurations.

``HashTableCache``, ``PreparedJobStore``, ``ResultCache`` and
``AggStore`` are configurations of
:class:`repro.serve.store.GenerationalStore`; the two mixins here
state what every configuration owes its callers — budget/eviction
accounting and the generation-stamp protocol — once.  A test class
picks a configuration by setting ``config`` (``TestHashTableCache`` /
``TestGenerationStamps`` in ``test_serve.py``, ``TestResultCache`` in
``test_frontend.py``, ``TestAdmission`` in ``test_aggstore.py``,
``TestPreparedJobStore`` in ``test_prepared_jobs.py``).

The aggregate store is driven through its real surface
(``admit``/``fetch``): a region becomes a query family, a key a
group-by set, and the stored rows are padded so their pickled size is
exactly the byte charge the contract asks for.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SanitizerError, ValidationError
from repro.core.expressions import Col, Comparison
from repro.core.query import Aggregate, StarQuery
from repro.core.result import QueryResult
from repro.serve.aggstore import AggStore
from repro.serve.cache import HashTableCache, PreparedJobStore, ResultCache


@dataclass(frozen=True)
class StoreConfig:
    """How the contract talks to one configuration."""

    make: Callable[..., Any]       # (budget_bytes, sanitize=False)
    put: Callable[..., bool]       # (store, region, key, value, nbytes,
    #                                 generation=None); value is an int
    get: Callable[..., Any]        # (store, region, key) -> value | None
    per_region: bool               # budget bounds each region


def _plain_put(store, region, key, value, nbytes, generation=None):
    return store.put(region, key, value, nbytes, generation=generation)


def _plain_get(store, region, key):
    return store.get(region, key)


def _agg_query(region, key) -> StarQuery:
    return StarQuery(
        name="contract", fact_table="lineorder",
        fact_predicate=Comparison("lo_region", "=", str(region)),
        aggregates=[Aggregate("sum", Col("lo_revenue"), alias="rev")],
        group_by=[f"g_{key}"])


def _agg_put(store, region, key, value, nbytes, generation=None):
    query = _agg_query(region, key)
    pad = "x" * nbytes
    while len(pickle.dumps([(pad, value)])) > nbytes:
        assert pad, f"{nbytes} bytes cannot hold a pickled row"
        pad = pad[:-1]
    result = QueryResult(query.name, [query.group_by[0], "rev"],
                         [(pad, value)])
    return store.admit(query, result, cost=1.0, generation=generation)


def _agg_get(store, region, key):
    result = store.fetch(_agg_query(region, key)).result
    return None if result is None else result.rows[0][1]


HT_CACHE = StoreConfig(HashTableCache, _plain_put, _plain_get, True)
RESULT_CACHE = StoreConfig(ResultCache, _plain_put, _plain_get, False)
PREPARED_JOBS = StoreConfig(PreparedJobStore, _plain_put, _plain_get, False)
AGG_STORE = StoreConfig(AggStore, _agg_put, _agg_get, False)


class _Contract:
    config: StoreConfig

    def make(self, budget_bytes, **kwargs):
        return self.config.make(budget_bytes, **kwargs)

    def put(self, store, region, key, value, nbytes, **kwargs):
        return self.config.put(store, region, key, value, nbytes, **kwargs)

    def get(self, store, region, key):
        return self.config.get(store, region, key)


class StoreBudgetContract(_Contract):
    """Byte budget, eviction order, and the counters that prove them."""

    def test_put_get_roundtrip(self):
        store = self.make(1000)
        assert self.put(store, "node0", "k", 7, 100)
        assert self.get(store, "node0", "k") == 7
        stats = store.stats()
        assert stats.hits == 1 and stats.misses == 0
        assert stats.entries == 1 and stats.bytes_cached == 100
        assert stats.budget_bytes == 1000 and stats.regions == 1

    def test_miss_counts(self):
        store = self.make(1000)
        assert self.get(store, "node0", "absent") is None
        assert store.stats().misses == 1

    def test_lru_eviction_order(self):
        store = self.make(300)
        for value, key in enumerate("abc"):
            self.put(store, "n", key, value, 100)
        self.get(store, "n", "a")            # refresh a; b is now LRU
        self.put(store, "n", "d", 3, 100)    # over budget -> evict b
        assert self.get(store, "n", "b") is None
        assert self.get(store, "n", "a") == 0
        assert self.get(store, "n", "c") == 2
        assert self.get(store, "n", "d") == 3
        assert store.stats().evictions == 1

    def test_budget_scope(self):
        # The hash-table cache models per-node memory (one budget per
        # region); results and aggregates share one budget.
        store = self.make(100)
        self.put(store, "n0", "k", 0, 100)
        self.put(store, "n1", "k", 1, 100)
        stats = store.stats()
        if self.config.per_region:
            assert stats.evictions == 0 and stats.bytes_cached == 200
            assert self.get(store, "n0", "k") == 0
        else:
            assert stats.evictions == 1 and stats.bytes_cached == 100
            assert self.get(store, "n0", "k") is None
        assert self.get(store, "n1", "k") == 1

    def test_oversized_entry_rejected(self):
        store = self.make(100)
        self.put(store, "n", "small", 1, 50)
        assert not self.put(store, "n", "huge", 2, 101)
        # The rejection neither stored the value nor flushed the rest.
        assert self.get(store, "n", "huge") is None
        assert self.get(store, "n", "small") == 1
        assert store.stats().rejected == 1

    def test_replace_same_key_recharges_bytes(self):
        store = self.make(100)
        self.put(store, "n", "k", 1, 60)
        self.put(store, "n", "k", 2, 80)  # replaces, no double charge
        stats = store.stats()
        assert stats.entries == 1 and stats.bytes_cached == 80
        assert self.get(store, "n", "k") == 2

    def test_invalidate_clears_everything(self):
        store = self.make(1000)
        self.put(store, "n0", "k", 1, 50)
        self.put(store, "n1", "k", 2, 50)
        generation = store.generation
        store.invalidate()
        assert len(store) == 0
        assert store.generation == generation + 1
        assert self.get(store, "n0", "k") is None
        stats = store.stats()
        assert stats.invalidations == 1 and stats.bytes_cached == 0
        assert stats.regions == 0

    def test_hit_rate(self):
        store = self.make(1000)
        assert store.stats().hit_rate() == 0.0
        self.put(store, "n", "k", 1, 50)
        self.get(store, "n", "k")
        self.get(store, "n", "nope")
        assert store.stats().hit_rate() == 0.5

    def test_stats_add_up(self):
        store = self.make(250)
        for i in range(7):
            assert self.put(store, "n", f"k{i}", i, 100)
        found = [self.get(store, "n", f"k{i}") for i in range(7)]
        stats = store.stats()
        live = [value for value in found if value is not None]
        assert stats.puts == 7 and stats.entries == len(store) == 2
        assert stats.evictions == stats.puts - stats.entries
        assert stats.bytes_cached == 100 * stats.entries
        assert len(live) == stats.entries
        assert stats.hits == len(live) and stats.misses == 7 - len(live)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            self.make(0)
        with pytest.raises(ValidationError):
            self.make(-1)

    def test_sanitizer_guards_fields(self):
        store = self.make(1 << 20, sanitize=True)
        assert self.put(store, "n", "k", 1, 50)
        assert self.get(store, "n", "k") == 1   # lock-held paths: fine
        with pytest.raises(SanitizerError, match="unguarded write"):
            store.generation = 99
        with pytest.raises(SanitizerError, match="unguarded write"):
            store._hits = 99
        with store._lock:                       # under the lock: allowed
            store._hits += 1
        assert store.stats().hits == 2


class StoreStampContract(_Contract):
    """The generation-stamp protocol: idempotent stamped invalidation
    and refusal of work computed under a superseded stamp."""

    def test_unstamped_invalidate_bumps_by_one(self):
        store = self.make(1024)
        self.put(store, "r", "k", 1, 50)
        assert store.invalidate() is True
        assert store.generation == store.current_generation() == 1
        assert len(store) == 0

    def test_stamped_invalidate_adopts_generation(self):
        store = self.make(1024)
        self.put(store, "r", "k", 1, 50)
        assert store.invalidate(generation=5) is True
        assert store.generation == store.current_generation() == 5
        assert store.stats().invalidations == 1
        assert store.stats().generation == 5

    def test_stale_and_duplicate_stamps_are_noops(self):
        store = self.make(1024)
        store.invalidate(generation=5)
        self.put(store, "r", "k", 1, 50)
        # A duplicate of the applied stamp and anything older must not
        # clear the store again (idempotent, replay-safe).
        assert store.invalidate(generation=5) is False
        assert store.invalidate(generation=3) is False
        assert len(store) == 1
        assert store.stats().invalidations == 1
        assert store.invalidate(generation=6) is True
        assert len(store) == 0
        assert store.invalidate() is True        # unstamped advances
        assert store.current_generation() == 7

    def test_stale_generation_refused(self):
        # A value computed before a reload must die at put(): were it
        # accepted it would be served as fresh under the new stamp.
        store = self.make(1024)
        snapshot = store.current_generation()
        store.invalidate()                   # reload wins the race
        assert not self.put(store, "r", "k", 1, 50, generation=snapshot)
        assert self.get(store, "r", "k") is None
        stats = store.stats()
        assert stats.stale_drops == 1 and stats.entries == 0
        # A stamp matching the live generation stores normally.
        assert self.put(store, "r", "k", 1, 50,
                        generation=store.current_generation())
        assert self.get(store, "r", "k") == 1

    def __init_subclass__(cls, **kwargs):
        # One hypothesis test per configuration (a @given method shared
        # by several classes trips HealthCheck.differing_executors).
        super().__init_subclass__(**kwargs)
        cls.test_hits_never_survive_a_generation_bump = _bump_property()


def _bump_property():
    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("put"),
                      st.integers(min_value=0, max_value=5)),
            st.tuples(st.just("get"),
                      st.integers(min_value=0, max_value=5)),
            st.tuples(st.just("bump"), st.just(0))),
        max_size=60))
    def test_hits_never_survive_a_generation_bump(self, ops):
        # Model check: a get may only return a value put in the
        # current generation — a reload's bump invalidates everything
        # before it, with no barrier.
        store = self.make(10_000)
        model: dict[int, int] = {}
        generation = 0
        for op, key in ops:
            if op == "put":
                self.put(store, "r", key, key, 50)
                model[key] = generation
            elif op == "bump":
                generation += 1
                store.invalidate()
                assert store.current_generation() == generation
            else:
                value = self.get(store, "r", key)
                if model.get(key) != generation:
                    assert value is None
                else:
                    assert value == key

    return test_hits_never_survive_a_generation_bump
