"""One generation-stamped, byte-budgeted store.

The paper's JVM reuse keeps one set of dimension hash tables per node
and lets every task share it; the serving layer stretches that idea
across queries four times — built hash tables, prepared jobs, whole
results, and materialized aggregates — and all four are configurations
of the one :class:`GenerationalStore` here:

====================  ==============================  ===========  ==================  =====================
configuration         key (``core.canonical``)        budget       eviction            stamped by
====================  ==============================  ===========  ==================  =====================
``HashTableCache``    region = node, ``table_key``    per region   LRU                 worker session, with
                                                                                       the frontend's stamp
``PreparedJobStore``  (``exact``, features)           whole store  LRU                 session, with the
                                                                                       cache
``ResultCache``       ``exact``                       whole store  LRU                 frontend
``AggStore``          region = ``family``, (group     whole store  least benefit of    session / frontend
                      set, aggregate identities)                   the oldest entries
====================  ==============================  ===========  ==================  =====================

What the store owns, once: the lock (one leaf rank, ``serve.store`` —
a store never takes another lock while holding its own) and its
sanitizer guard; the byte budget with oversize rejection and the
eviction loop; hit/miss/put accounting with one stats snapshot; and the
**stamp protocol**.  ``invalidate()`` advances the generation;
``invalidate(generation=)`` adopts a stamp issued elsewhere and ignores
one at or below the current generation, so a broadcast needs no barrier
and a replayed message never invalidates twice; ``put(...,
generation=)`` refuses a value computed under a superseded stamp, so
work that raced a catalog reload can never be stored as fresh.
Invalidation clears eagerly: a hit never survives a generation bump.

Values are opaque and callers construct their own hashable keys;
consumers in ``repro.core`` reach a store through ``conf.ht_cache`` or
``ClydesdaleEngine.prepared_jobs``, never by importing this package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.common.errors import ValidationError
from repro.common.keys import LOCK_SERVE_STORE
from repro.common.locking import guarded_lock


@dataclass(frozen=True)
class StoreStats:
    """Immutable snapshot of a store's effectiveness counters."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    stale_drops: int = 0   # puts refused for a superseded stamp
    rejected: int = 0      # values larger than the whole budget
    invalidations: int = 0
    entries: int = 0
    bytes_cached: int = 0
    budget_bytes: int = 0
    generation: int = 0
    regions: int = 0

    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


@dataclass
class StoreEntry:
    value: Any
    nbytes: int
    tick: int              # store clock at the last put or ``get`` hit
    hits: int = 0


class GenerationalStore:
    """Byte-budgeted, generation-stamped map of ``(region, key)`` to an
    opaque value.  ``get``/``put`` are O(1) plus evictions."""

    #: True bounds each region by ``budget_bytes`` (node-resident
    #: tables: the budget models per-node memory); False bounds the sum.
    PER_REGION = False

    #: Fields the lock guards; ``sanitize=True`` enforces this at
    #: runtime via :func:`repro.analyze.sanitizer.guard_fields`.
    GUARDED_FIELDS = ("_regions", "_bytes", "_tick", "_hits", "_misses",
                      "_puts", "_evictions", "_stale_drops", "_rejected",
                      "_invalidations", "generation")

    def __init__(self, budget_bytes: int, *,
                 sanitize: bool = False) -> None:
        if budget_bytes <= 0:
            raise ValidationError(
                f"{type(self).__name__} budget must be positive, "
                f"got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        #: Whether the lock and guarded fields are runtime-checked (a
        #: store that serves another, like a session's prepared jobs
        #: beside its cache, is checked the same way).
        self.sanitize = bool(sanitize)
        #: region -> entries, least recently used first; never empty.
        self._regions: dict[Hashable,
                            OrderedDict[Hashable, StoreEntry]] = {}
        self._bytes: dict[Hashable, int] = {}
        self._tick = 0
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._stale_drops = 0
        self._rejected = 0
        self._invalidations = 0
        self.generation = 0
        self._lock = guarded_lock(self, LOCK_SERVE_STORE,
                                  self.GUARDED_FIELDS, sanitize)

    # ------------------------------------------------------------------ #

    def get(self, region: Hashable, key: Hashable) -> Any | None:
        """The stored value, marking it most-recently-used; None on
        miss."""
        with self._lock:
            entries = self._regions.get(region)
            entry = entries.get(key) if entries is not None else None
            if entry is None:
                self._misses += 1
                return None
            entries.move_to_end(key)
            self._tick += 1
            entry.tick = self._tick
            entry.hits += 1
            self._hits += 1
            return entry.value

    def put(self, region: Hashable, key: Hashable, value: Any,
            nbytes: int, *, generation: int | None = None) -> bool:
        """Store ``value`` charged at ``nbytes``, evicting past the
        budget.  Returns False (storing nothing) when the value alone
        exceeds the whole budget, or when ``generation`` — the stamp
        ``value`` was *computed* under — is no longer current."""
        nbytes = max(0, int(nbytes))
        with self._lock:
            if generation is not None and generation != self.generation:
                self._stale_drops += 1
                return False
            if nbytes > self.budget_bytes:
                self._rejected += 1
                return False
            entries = self._regions.setdefault(region, OrderedDict())
            old = entries.pop(key, None)
            if old is not None:
                self._bytes[region] -= old.nbytes
            self._tick += 1
            entries[key] = StoreEntry(value, nbytes, self._tick)
            self._bytes[region] = self._bytes.get(region, 0) + nbytes
            self._puts += 1
            while (self._bytes.get(region, 0) if self.PER_REGION
                   else sum(self._bytes.values())) > self.budget_bytes:
                victim_region, victim_key = self._victim(region)
                victims = self._regions[victim_region]
                self._bytes[victim_region] -= victims.pop(
                    victim_key).nbytes
                if not victims:
                    del self._regions[victim_region]
                    del self._bytes[victim_region]
                self._evictions += 1
            return True

    def _victim(self, region: Hashable) -> tuple[Hashable, Hashable]:
        """Eviction policy (lock held): the ``(region, key)`` to drop
        while the budget ``region`` was just written under is exceeded.
        Default: least recently used within the budget's scope."""
        if not self.PER_REGION:
            region = min(self._regions, key=lambda r: next(
                iter(self._regions[r].values())).tick)
        return region, next(iter(self._regions[region]))

    def invalidate(self, generation: int | None = None) -> bool:
        """Drop everything (catalog reload / explicit flush).

        With no argument the generation simply advances — the
        in-process, single-owner behavior.  ``generation=`` adopts a
        stamp issued elsewhere (the frontend stamps each reload and
        broadcasts it; every store applies it *independently*): a stamp
        at or below the current generation is a duplicate or stale
        message and is ignored.  Returns whether the invalidation was
        applied.
        """
        with self._lock:
            if generation is not None and generation <= self.generation:
                return False
            self._regions.clear()
            self._bytes.clear()
            self._invalidations += 1
            self.generation = (self.generation + 1 if generation is None
                               else generation)
            return True

    def current_generation(self) -> int:
        """The live stamp (snapshot it before starting work whose
        result will be :meth:`put`)."""
        with self._lock:
            return self.generation

    # ------------------------------------------------------------------ #

    def _snapshot(self) -> dict[str, int]:
        """The :class:`StoreStats` fields (lock held)."""
        return dict(
            hits=self._hits, misses=self._misses, puts=self._puts,
            evictions=self._evictions, stale_drops=self._stale_drops,
            rejected=self._rejected, invalidations=self._invalidations,
            entries=sum(len(r) for r in self._regions.values()),
            bytes_cached=sum(self._bytes.values()),
            budget_bytes=self.budget_bytes, generation=self.generation,
            regions=len(self._regions))

    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(**self._snapshot())

    def __len__(self) -> int:
        with self._lock:
            return sum(len(r) for r in self._regions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"{type(self).__name__}(entries={s.entries}, "
                f"bytes={s.bytes_cached}/{s.budget_bytes}, "
                f"hits={s.hits}, misses={s.misses}, "
                f"generation={s.generation})")
