"""The three plain configurations of :class:`~repro.serve.store.
GenerationalStore`: built hash tables per node, prepared jobs and whole
results.

Clydesdale's third trick — JVM reuse — amortizes the per-node hash build
across the map tasks of *one* job.  A :class:`repro.serve.session.Session`
keeps the built tables alive across *queries* in a
:class:`HashTableCache`: one region per cluster node (mirroring where
the tables physically live), each bounded by ``clydesdale.cache.
ht_bytes``, keyed by :meth:`repro.core.canonical.CanonicalQuery.
table_key` (Clydesdale caches built
:class:`~repro.core.hashtable.DimensionHashTable` objects, the Hive
engine serialized mapjoin broadcast payloads under its own keys).  A
warm repeat skips the build phase entirely.

A :class:`PreparedJobStore` keeps the rest of a warm query's set-up —
its planned job, splits and decoded column buffers
(:class:`repro.core.prepared.PreparedJob`) — keyed on the canonical
query and the features it ran with. The session owns it next to the
hash-table cache, under the same byte budget figure but its own
accounting, and drops both together.

A :class:`ResultCache` sits in front of the scale-out frontend's workers
and answers a byte-identical repeat of a whole query
(:attr:`~repro.core.canonical.CanonicalQuery.exact`) without reaching
one.
"""

from __future__ import annotations

from repro.core.result import QueryResult
from repro.serve.store import GenerationalStore, StoreStats

CacheStats = StoreStats
ResultCacheStats = StoreStats


class HashTableCache(GenerationalStore):
    """Node-resident LRU cache of built dimension hash tables."""

    PER_REGION = True


class PreparedJobStore(GenerationalStore):
    """LRU store of prepared jobs under one budget."""


class ResultCache(GenerationalStore):
    """LRU cache of whole query results under one budget."""

    def lookup(self, key: str) -> QueryResult | None:
        return self.get(None, key)

    def store(self, key: str, value: QueryResult, nbytes: int,
              generation: int | None = None) -> bool:
        return self.put(None, key, value, nbytes, generation=generation)
