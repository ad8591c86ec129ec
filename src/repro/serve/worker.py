"""Worker processes for the scale-out serving frontend.

Each worker is a forked process owning a full engine stack — its own
simulated cluster, mini-DFS, JVM pool, and (crucially) its own
:class:`~repro.serve.cache.HashTableCache` *shard* — behind one duplex
pipe.  The parent-side :class:`WorkerHandle` serializes that pipe under
a per-worker lock, so exactly one frontend thread talks to a worker at
a time; concurrency across workers is real OS-process concurrency.

Protocol (one tuple per message, request/reply unless noted):

* ``("execute", query, share)`` → ``("ok", result, summary)`` or
  ``("err", exc)`` — run a query under an optional fair-share grant;
  ``summary`` carries the per-execute warmness evidence (``ht_builds``,
  cache hit/miss deltas, the shard's generation);
* ``("explain", query)`` → ``("ok", text, {})`` — render the plan;
* ``("stats",)`` → ``("ok", info, {})`` — worker liveness/cache info;
* ``("invalidate", generation)`` / ``("reload", data, generation)`` —
  **no reply**: generation-stamped invalidation is fire-and-forget, so
  a catalog reload never barriers the whole pool (pipe FIFO ordering
  guarantees the stamp applies before any later execute on this
  worker, and the stamp itself makes duplicates harmless);
* ``("poison", mode)`` — no reply; fault injection: ``"fail"`` makes
  the next execute raise, ``"crash"`` makes the worker die mid-query,
  ``"stall:<seconds>"`` makes the next execute sleep first;
* ``("shutdown",)`` — no reply; the worker drains and exits.

Worker death is detected with ``connection.wait`` on the reply pipe
*and* the process sentinel — never by EOF alone, which forked siblings
holding inherited pipe ends could mask — and surfaces as
:class:`~repro.common.errors.WorkerCrashError` for the frontend's
retry/respawn machinery.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable

from repro.common.errors import WorkerCrashError
from repro.common.keys import LOCK_FRONTEND_WORKER
from repro.common.locking import guarded_lock

#: Seconds a parent waits on a worker reply before declaring it dead.
REQUEST_TIMEOUT_S = 300.0


def _execute_summary(session, worker_id: int,
                     generation: int) -> dict[str, Any]:
    """The warmness evidence shipped back with every execute reply.

    A store-served answer never reached the engine, so the engine's
    last stats describe an *older* query — report zero builds (true:
    nothing was built) and let ``provenance`` carry the real story.
    """
    snapshot = session.stats()
    stats = snapshot.execution
    cache = snapshot.cache
    prov = snapshot.provenance
    agg_served = prov.source != "executed"
    return {
        "worker": worker_id,
        "pid": os.getpid(),
        "ht_builds": 0 if agg_served
        else getattr(stats, "ht_builds", None),
        "ht_builds_reused": 0 if agg_served
        else getattr(stats, "ht_builds_reused", None),
        "ht_cache_hits": cache.hits if cache is not None else None,
        "ht_cache_misses": cache.misses if cache is not None else None,
        "generation": generation,
        "provenance": prov.to_dict(),
    }


def worker_main(conn, parent_end, worker_id: int,
                open_session: Callable[..., Any], data: Any) -> None:
    """Child-process entry: build a session, serve the request loop.

    ``parent_end`` is the parent's side of the pipe, inherited through
    fork; closing it here keeps the fd accounting clean.
    ``open_session`` is :func:`repro.api.connect` bound to the
    frontend's backend, ``conf``, ``features`` and ``plan``.

    The worker tracks the frontend's generation itself (every stamped
    ``invalidate``/``reload`` carries it, in pipe order), so a session
    without a cache shard still reports the generation it executed
    under — the result-cache stamp and the reload-recovery replay read
    it.
    """
    if parent_end is not None:
        parent_end.close()
    session = open_session(data=data, name=f"worker{worker_id}")
    generation = 0
    poison: str | None = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break                      # parent is gone; die quietly
        op = msg[0]
        if op == "shutdown":
            break
        try:
            if op == "execute":
                _, query, share = msg
                if poison is not None:
                    mode, poison = poison, None
                    if mode == "crash":
                        os._exit(13)   # die mid-query, no goodbye
                    if mode.startswith("stall:"):
                        time.sleep(float(mode.partition(":")[2]))
                    elif mode == "fail":
                        raise RuntimeError(
                            f"worker {worker_id} poisoned")
                result = session.execute_for(query, slot_share=share,
                                             trace=False)
                conn.send(("ok", result, _execute_summary(
                    session, worker_id, generation)))
            elif op == "explain":
                conn.send(("ok", session.explain(msg[1]), {}))
            elif op == "stats":
                cache = session.cache_stats()
                conn.send(("ok", {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "backend": session.backend,
                    "generation": generation,
                    "cache_entries": (cache.entries
                                      if cache is not None else 0),
                    "cache_invalidations": (cache.invalidations
                                            if cache is not None else 0),
                }, {}))
            elif op == "invalidate":
                session.invalidate_cache(generation=msg[1])
                generation = max(generation, msg[1])
            elif op == "reload":
                _, new_data, stamp = msg
                session.reload_catalog(new_data, generation=stamp)
                generation = max(generation, stamp)
            elif op == "poison":
                poison = msg[1]
            else:
                conn.send(("err", ValueError(f"unknown op {op!r}")))
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", RuntimeError(repr(exc))))
    conn.close()


class WorkerHandle:
    """Parent-side handle on one worker process.

    All pipe traffic is serialized under the worker lock
    (``frontend.worker`` in the declared hierarchy); request/reply ops
    block for the reply, control ops (``post``) are fire-and-forget.
    """

    #: Pipe/bookkeeping state the lock guards; ``sanitize=True``
    #: enforces this via :func:`repro.analyze.sanitizer.guard_fields`.
    GUARDED_FIELDS = ("_conn", "_process", "_dead", "executes")

    def __init__(self, worker_id: int,
                 open_session: Callable[..., Any], data: Any, *,
                 sanitize: bool = False):
        self.worker_id = worker_id
        self._open_session = open_session
        self._conn = None
        self._process = None
        self._dead = True
        self.executes = 0
        self._lock = guarded_lock(self, LOCK_FRONTEND_WORKER,
                                  self.GUARDED_FIELDS, sanitize)
        self.spawn(data)

    # ------------------------------------------------------------------ #

    def spawn(self, data: Any) -> None:
        """Fork a fresh worker process over ``data`` (initial spawn and
        respawn-after-crash share this path)."""
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, parent_conn, self.worker_id,
                  self._open_session, data),
            name=f"clydesdale-worker-{self.worker_id}", daemon=True)
        with self._lock:
            old_conn = self._conn
            process.start()
            child_conn.close()
            self._conn = parent_conn
            self._process = process
            self._dead = False
        if old_conn is not None:
            old_conn.close()

    def ensure_respawned(self, data: Any, generation: int) -> bool:
        """Fork a replacement for a dead worker exactly once.

        Races are resolved under the worker lock: the first frontend
        thread to notice the death respawns and replays the current
        catalog ``generation`` onto the fresh shard (so a crash never
        resurrects a pre-reload generation); every other thread finds
        the worker alive again and does nothing. Returns whether this
        call did the respawn."""
        with self._lock:
            if not self._dead:
                return False
            old = self._process
            self.spawn(data)
            if generation:
                self.post(("invalidate", generation))
        if old is not None:
            old.join(timeout=10)   # reap the corpse outside the lock
        return True

    def request(self, msg: tuple,
                timeout: float = REQUEST_TIMEOUT_S) -> tuple[Any, dict]:
        """Send ``msg`` and block for its reply.

        Raises :class:`WorkerCrashError` when the worker dies (or times
        out) with the request outstanding, and re-raises any exception
        the worker shipped back in an ``("err", exc)`` reply.
        """
        with self._lock:
            if self._dead or self._conn is None:
                raise WorkerCrashError(
                    f"worker {self.worker_id} is dead",
                    worker=self.worker_id,
                    pid=(self._process.pid
                         if self._process is not None else None))
            conn, process = self._conn, self._process
            try:
                conn.send(msg)
                deadline = time.monotonic() + timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise WorkerCrashError(
                            f"worker {self.worker_id} timed out after "
                            f"{timeout}s on {msg[0]!r}",
                            worker=self.worker_id, pid=process.pid)
                    ready = _conn_wait([conn, process.sentinel],
                                       timeout=remaining)
                    if conn in ready:
                        reply = conn.recv()
                        break
                    if process.sentinel in ready:
                        raise WorkerCrashError(
                            f"worker {self.worker_id} died with "
                            f"{msg[0]!r} outstanding",
                            worker=self.worker_id, pid=process.pid)
            except WorkerCrashError:
                self._dead = True
                raise
            except (EOFError, OSError) as exc:
                self._dead = True
                raise WorkerCrashError(
                    f"worker {self.worker_id} pipe failed: {exc!r}",
                    worker=self.worker_id, pid=process.pid) from exc
            if msg[0] == "execute":
                self.executes += 1
        status, payload = reply[0], reply[1]
        if status == "err":
            raise payload
        return payload, (reply[2] if len(reply) > 2 else {})

    def post(self, msg: tuple) -> bool:
        """Fire-and-forget control message (invalidate/reload/poison).

        Returns False when the worker is already dead — the caller's
        respawn path replays the current generation instead."""
        with self._lock:
            if self._dead or self._conn is None:
                return False
            try:
                self._conn.send(msg)
                return True
            except (OSError, ValueError):
                self._dead = True
                return False

    # ------------------------------------------------------------------ #

    def execute_count(self) -> int:
        with self._lock:
            return self.executes

    def alive(self) -> bool:
        with self._lock:
            return (not self._dead and self._process is not None
                    and self._process.is_alive())

    def mark_dead(self, expected_pid: int | None = None) -> bool:
        """Take the worker out of service — identity-aware.

        ``expected_pid`` is the pid the caller saw crash (from
        :attr:`WorkerCrashError.pid`).  When the handle's process has
        already been replaced by a respawn, the stale report is a
        no-op: a second thread observing the *old* crash must not
        condemn the healthy replacement.  Returns whether the handle
        is (now) dead from the caller's point of view — False means
        "your crash was already recovered; nothing to do".
        """
        with self._lock:
            if (expected_pid is not None
                    and self._process is not None
                    and self._process.pid != expected_pid):
                return False
            self._dead = True
            return True

    def pid(self) -> int | None:
        with self._lock:
            return self._process.pid if self._process is not None else None

    def kill(self) -> None:
        """Terminate the worker process outright (fault injection)."""
        with self._lock:
            self._dead = True
            process = self._process
        if process is not None:
            process.terminate()
            process.join(timeout=10)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Ask the worker to exit; escalate to terminate on silence."""
        self.post(("shutdown",))
        with self._lock:
            self._dead = True
            process, conn = self._process, self._conn
            self._conn = None
        if process is not None:
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
        if conn is not None:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkerHandle(id={self.worker_id}, "
                f"alive={self.alive()}, executes={self.executes})")
