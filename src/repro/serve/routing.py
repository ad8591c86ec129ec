"""Warm-shard routing: the shape router.

Each worker process behind the frontend owns its own hash-table cache
shard, so a query is only "warm" on the worker that has executed its
*shape* before.  The shape
(:attr:`repro.core.canonical.CanonicalQuery.shape`) is cut from the
same normalised joins as the hash-table cache key
(:meth:`~repro.core.canonical.CanonicalQuery.table_key`), so two
queries with the same shape find each other's tables: routing repeat
shapes to the same worker turns the per-worker shard into a warm cache
and the repeat performs no builds at all (``ht_builds == 0``).

:class:`ShapeRouter` implements the policy: first sighting of a shape
pins it to the least-loaded live worker (ties break on the lowest
worker id, so assignment is a deterministic function of the arrival
order of *new shapes*, not of thread timing); every later sighting
routes to the pinned worker.  When a worker dies the frontend calls
:meth:`ShapeRouter.forget_worker` and the dead worker's shapes re-pin
lazily on their next arrival.
"""

from __future__ import annotations

from typing import Hashable

from repro.common.keys import LOCK_FRONTEND_ROUTER
from repro.common.locking import guarded_lock
from repro.core.canonical import CanonicalQuery
from repro.core.query import StarQuery


def query_shape(query: StarQuery) -> tuple:
    """The canonical join-key signature of ``query``
    (:attr:`CanonicalQuery.shape`)."""
    return CanonicalQuery(query).shape


def result_key(query: StarQuery) -> str:
    """The frontend result-cache key: the whole query
    (:attr:`CanonicalQuery.exact`)."""
    return CanonicalQuery(query).exact


class ShapeRouter:
    """Sticky, deterministic shape→worker assignment over live workers."""

    #: Routing state the lock guards; ``sanitize=True`` enforces this
    #: at runtime via :func:`repro.analyze.sanitizer.guard_fields`.
    GUARDED_FIELDS = ("_assignments", "_loads")

    def __init__(self, worker_ids, *, sanitize: bool = False):
        self._loads: dict[int, int] = {wid: 0 for wid in worker_ids}
        self._assignments: dict[Hashable, int] = {}
        self._lock = guarded_lock(self, LOCK_FRONTEND_ROUTER,
                                  self.GUARDED_FIELDS, sanitize)

    def route(self, shape: Hashable) -> tuple[int, bool]:
        """Route ``shape`` to ``(worker_id, warm)``.

        ``warm`` is True when the shape was already pinned to a live
        worker — its hash tables are resident in that worker's shard.
        A shape pinned to a since-dead worker re-pins (cold) here.
        """
        with self._lock:
            if not self._loads:
                raise KeyError("no live workers to route to")
            worker = self._assignments.get(shape)
            if worker is not None and worker in self._loads:
                return worker, True
            chosen = min(self._loads,
                         key=lambda wid: (self._loads[wid], wid))
            self._assignments[shape] = chosen
            self._loads[chosen] += 1
            return chosen, False

    def peek(self, shape: Hashable) -> tuple[int, bool]:
        """The ``(worker_id, warm)`` that :meth:`route` would return for
        ``shape`` — without pinning the shape or bumping any load tally.

        EXPLAIN and other read-only callers must use this: a
        :meth:`route` call mutates routing state, so routing through it
        without executing would mark the shape warm while the shard is
        actually cold and skew least-loaded placement.
        """
        with self._lock:
            if not self._loads:
                raise KeyError("no live workers to route to")
            worker = self._assignments.get(shape)
            if worker is not None and worker in self._loads:
                return worker, True
            chosen = min(self._loads,
                         key=lambda wid: (self._loads[wid], wid))
            return chosen, False

    def forget_worker(self, worker_id: int) -> None:
        """Take a dead worker out of rotation; its shapes re-pin on
        their next :meth:`route` (no eager rebalancing barrier). Pins
        to the dead worker are dropped eagerly so a respawned worker
        (same id, cold shard) is never mistaken for warm."""
        with self._lock:
            self._loads.pop(worker_id, None)
            self._assignments = {
                shape: wid for shape, wid in self._assignments.items()
                if wid != worker_id}

    def add_worker(self, worker_id: int) -> None:
        """(Re-)admit a worker with an empty (cold) load tally."""
        with self._lock:
            if worker_id not in self._loads:
                self._loads[worker_id] = 0

    def workers(self) -> tuple[int, ...]:
        """The live worker ids, ascending."""
        with self._lock:
            return tuple(sorted(self._loads))

    def assignments(self) -> dict[Hashable, int]:
        """Snapshot of the live shape→worker pins (dead pins dropped)."""
        with self._lock:
            return {shape: wid
                    for shape, wid in self._assignments.items()
                    if wid in self._loads}

    def loads(self) -> dict[int, int]:
        """Snapshot of shapes pinned per live worker."""
        with self._lock:
            return dict(self._loads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"ShapeRouter(workers={sorted(self._loads)}, "
                    f"shapes={len(self._assignments)})")
