"""Multi-threaded hammer tests for the concurrent subsystems.

Barrier-started thread gangs pound the hash-table cache, the frontend's
admission machinery, and the fair-share grant path, all with the
lock-discipline sanitizer on (``TrackedRLock`` + ``guard_fields``), and
then assert the bookkeeping adds up exactly: every counter a consistent
function of the operations performed, no lost updates, no lock-order
violation raised along the way.

The CI concurrency-stress job repeats this file under several
``PYTHONHASHSEED`` values and thread counts; ``CLYDESDALE_HAMMER_THREADS``
overrides the gang size locally.
"""

import dataclasses
import os
import sys
import threading

import pytest

from repro.common.config import Configuration
from repro.common.errors import AdmissionError, SchedulerError
from repro.common.keys import (
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_MAX_CONCURRENT,
    KEY_SERVE_QUEUE_DEPTH,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_SESSION_QUOTA,
    KEY_SERVE_WORKERS,
)
from repro.mapreduce.fairshare import FairShareScheduler, validate_shares
from repro.serve.cache import HashTableCache
from repro.serve.frontend import Frontend
from repro.sim.hardware import tiny_cluster

THREADS = int(os.environ.get("CLYDESDALE_HAMMER_THREADS", "8"))
ROUNDS = 60


def _hammer(worker, parties=THREADS, timeout=300.0):
    """Run ``worker(thread_index)`` on a barrier-started gang; re-raise
    the first failure so assertion errors inside threads fail the test,
    and fail it when a thread is still running after ``timeout`` s."""
    barrier = threading.Barrier(parties)
    failures = []

    def body(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - propagated below
            failures.append(exc)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(parties)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "hammer thread hung"
    if failures:
        raise failures[0]


class TestCacheHammer:
    def test_stats_stay_consistent(self):
        cache = HashTableCache(budget_bytes=64 * 1024, sanitize=True)
        gets = [0] * THREADS
        puts_ok = [0] * THREADS
        invalidations = [0] * THREADS

        def worker(index):
            region = f"node{index % 3}"
            for i in range(ROUNDS):
                key = (index, i % 7)
                if cache.get(region, key) is None:
                    if cache.put(region, key, ("table", index, i), 128):
                        puts_ok[index] += 1
                gets[index] += 1
                if i % 25 == 24 and index == 0:
                    cache.invalidate()
                    invalidations[index] += 1

        _hammer(worker)
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets)
        assert stats.puts == sum(puts_ok)
        assert stats.invalidations == sum(invalidations)
        assert cache.generation == stats.invalidations
        assert stats.entries == len(cache)
        assert 0 <= stats.bytes_cached <= stats.budget_bytes * 3
        assert stats.rejected == 0

    def test_eviction_respects_budget_under_contention(self):
        # Budget of 4 entries per region: concurrent putters must never
        # leave a region over budget, and every byte must be accounted.
        cache = HashTableCache(budget_bytes=512, sanitize=True)

        def worker(index):
            for i in range(ROUNDS):
                cache.put("shared", (index, i), "v", 128)

        _hammer(worker)
        stats = cache.stats()
        assert stats.bytes_cached <= 512
        assert stats.entries <= 4
        assert stats.puts == THREADS * ROUNDS
        assert stats.evictions == stats.puts - stats.entries

    def test_oversized_puts_all_rejected(self):
        cache = HashTableCache(budget_bytes=64, sanitize=True)

        def worker(index):
            for i in range(ROUNDS):
                assert not cache.put("r", (index, i), "big", 1024)

        _hammer(worker)
        stats = cache.stats()
        assert stats.rejected == THREADS * ROUNDS
        assert stats.puts == 0 and stats.entries == 0


class TestPreparedJobHammer:
    def test_sessions_share_pool_and_prepared_jobs(self, ssb_data,
                                                   queries, reference):
        """``THREADS`` sessions over one engine run the 13 queries at
        once, each in its own order, through the shared join-thread pool
        and the engine's prepared jobs, with both stores sanitized."""
        from repro.core.engine import ClydesdaleEngine
        from repro.serve.session import Session
        # Small row groups: every map task has several readers, so its
        # join threads really come from the pool.
        engine = ClydesdaleEngine.with_ssb_data(data=ssb_data,
                                                row_group_size=1_000)
        sessions = [Session(engine, cache=HashTableCache(
            64 * 2**20, sanitize=True), name=f"s{i}")
            for i in range(THREADS)]
        assert engine.prepared_jobs.sanitize
        names = sorted(queries)
        expected = {name: reference.execute(queries[name]).rows
                    for name in names}
        answered = [0] * THREADS

        def worker(index):
            order = names[index % len(names):] + names[:index % len(names)]
            for name in order * 2:
                rows = sessions[index].execute(queries[name]).rows
                assert rows == expected[name], name
                answered[index] += 1

        _hammer(worker)
        assert answered == [2 * len(names)] * THREADS
        stats = engine.prepared_jobs.stats()
        assert stats.entries == len(names)
        assert stats.stale_drops == 0

    def test_pool_runs_every_body_once_under_contention(self):
        """Tasks fanning out at once, with thread switches forced
        often: every body runs exactly once per hand-off and no task
        waits on another's threads (a lost parking would hang here)."""
        from repro.core.joinjob import JOIN_THREADS
        ran = [0] * THREADS
        tally_lock = threading.Lock()

        def worker(index):
            def body():
                with tally_lock:
                    ran[index] += 1
            for _ in range(ROUNDS):
                JOIN_THREADS.fan_out(body, 3)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker, timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
        assert ran == [3 * ROUNDS] * THREADS


def _frontend(ssb_data, limits=()):
    """A sanitized one-worker frontend whose every execute reaches the
    worker (no frontend store answers first), so admitted queries stay
    in flight long enough to contend. ``limits`` maps admission keys
    (``clydesdale.serve.*``) to values."""
    return Frontend(backend="clydesdale", data=ssb_data, sanitize=True,
                    conf=Configuration({
                        KEY_SERVE_WORKERS: 1,
                        KEY_SERVE_RESULT_CACHE: False,
                        KEY_SERVE_AGGSTORE: False, **dict(limits)}))


class TestServerAdmissionHammer:
    def test_grant_bookkeeping_adds_up(self, ssb_data, queries):
        # Capacity 2 against a whole gang: most submissions are shed,
        # and every one of them must land in exactly one counter.
        front = _frontend(ssb_data, {KEY_SERVE_MAX_CONCURRENT: 1,
                                     KEY_SERVE_QUEUE_DEPTH: 1,
                                     KEY_SERVE_SESSION_QUOTA: THREADS})
        handle = front.session("hammer")
        rounds = ROUNDS // 10
        completed = [0] * THREADS
        rejected = [0] * THREADS

        def worker(index):
            for i in range(rounds):
                query = dataclasses.replace(queries["Q1.1"],
                                            limit=1 + (index + i) % 3)
                try:
                    handle.execute(query)
                    completed[index] += 1
                except AdmissionError as exc:
                    assert exc.reason == "saturated"
                    rejected[index] += 1

        try:
            _hammer(worker)
        finally:
            front.close()
        stats = front.stats()
        assert stats.submitted == THREADS * rounds
        assert stats.rejected == sum(rejected)
        assert stats.completed == sum(completed) == \
            stats.submitted - stats.rejected
        assert stats.failed == 0
        assert stats.in_flight == 0 and handle.in_flight == 0

    def test_session_quota_enforced_per_session(self, ssb_data, queries):
        # Pairs of threads share a quota-1 session: whichever submits
        # second while the first is in flight is refused — and only
        # for that reason (the frontend itself never saturates).
        front = _frontend(ssb_data, {KEY_SERVE_MAX_CONCURRENT: THREADS,
                                     KEY_SERVE_QUEUE_DEPTH: THREADS,
                                     KEY_SERVE_SESSION_QUOTA: 1})
        rounds = ROUNDS // 10
        admitted = [0] * THREADS
        rejected = [0] * THREADS

        def worker(index):
            handle = front.session(f"s{index // 2}")
            for _ in range(rounds):
                try:
                    handle.execute(queries["Q1.1"])
                    admitted[index] += 1
                except AdmissionError as exc:
                    assert exc.reason == "session-quota"
                    rejected[index] += 1

        try:
            _hammer(worker)
        finally:
            front.close()
        stats = front.stats()
        assert stats.submitted == THREADS * rounds
        assert stats.rejected == sum(rejected)
        assert stats.completed == sum(admitted)
        assert stats.in_flight == 0
        assert all(s.in_flight == 0 for s in front._sessions.values())


class TestFairShareGrantHammer:
    def test_concurrent_share_grants_never_oversubscribe(self, ssb_data):
        # Each thread repeatedly attaches a session with a 2/THREADS
        # share: at most half the gang can win; the losers must see a
        # SchedulerError, and the winners' shares must sum <= 1.
        front = _frontend(ssb_data)
        share = 2.0 / THREADS
        granted = [0] * THREADS

        def worker(index):
            try:
                front.session(f"grant{index}", share=share)
                granted[index] = 1
            except SchedulerError:
                pass

        try:
            _hammer(worker)
        finally:
            front.close()
        shares = {name: s.share
                  for name, s in front._sessions.items()
                  if s.share is not None}
        assert validate_shares(shares) == shares
        assert sum(granted) == len(shares) == THREADS // 2

    def test_granted_slots_consistent_across_threads(self):
        cluster = tiny_cluster(workers=4, map_slots=6)
        results = [[None] * ROUNDS for _ in range(THREADS)]

        def worker(index):
            scheduler = FairShareScheduler(share=0.5)
            for i in range(ROUNDS):
                results[index][i] = scheduler.granted_slots(cluster)

        _hammer(worker)
        assert {slot for row in results for slot in row} == {3}


class TestHammerWithSanitizerPanics:
    def test_injected_inversion_is_caught_under_load(self):
        # The static pass cannot see this ordering (it is data-driven
        # at runtime); TrackedRLock must catch it even mid-hammer.
        from repro.analyze.sanitizer import TrackedRLock
        from repro.common.errors import SanitizerError

        low = TrackedRLock("hammer.low", rank=1)
        high = TrackedRLock("hammer.high", rank=2)
        caught = [0] * THREADS

        def worker(index):
            for i in range(ROUNDS):
                if (index + i) % 2:
                    with low:
                        with high:
                            pass
                else:
                    with high:
                        with pytest.raises(SanitizerError):
                            low.acquire()
                    caught[index] += 1

        _hammer(worker)
        assert sum(caught) == sum(
            1 for index in range(THREADS) for i in range(ROUNDS)
            if not (index + i) % 2)


class _Res:
    """Minimal QueryResult stand-in for result-cache hammering."""

    def __init__(self, name):
        self.query_name = name
        self.rows = [[name]]


class TestResultCacheHammer:
    def test_counters_consistent_under_bumps(self):
        from repro.serve.cache import ResultCache

        cache = ResultCache(budget_bytes=64 * 1024, sanitize=True)
        gets = [0] * THREADS
        puts = [0] * THREADS
        bumps = [0] * THREADS

        def worker(index):
            for i in range(ROUNDS):
                key = f"k{(index * 7 + i) % 11}"
                if cache.lookup(key) is None:
                    if cache.store(key, _Res(key), 256):
                        puts[index] += 1
                gets[index] += 1
                if index == 0 and i % 20 == 19:
                    cache.invalidate()
                    bumps[index] += 1

        _hammer(worker)
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets)
        assert stats.puts == sum(puts)
        assert stats.generation == sum(bumps)
        assert stats.entries == len(cache)
        assert 0 <= stats.bytes_cached <= stats.budget_bytes
        assert stats.rejected == 0

    def test_eviction_respects_budget_under_contention(self):
        from repro.serve.cache import ResultCache

        cache = ResultCache(budget_bytes=1024, sanitize=True)

        def worker(index):
            for i in range(ROUNDS):
                cache.store(f"k{index}-{i}", _Res("v"), 256)

        _hammer(worker)
        stats = cache.stats()
        assert stats.bytes_cached <= 1024
        assert stats.entries <= 4
        assert stats.puts == THREADS * ROUNDS
        assert stats.evictions == stats.puts - stats.entries


class TestShapeRouterHammer:
    def test_pins_deterministic_and_tallies_exact(self):
        from repro.serve.routing import ShapeRouter

        router = ShapeRouter(range(4), sanitize=True)
        shapes = [f"shape{i}" for i in range(13)]
        routed = [[None] * len(shapes) for _ in range(THREADS)]

        def worker(index):
            for _ in range(ROUNDS // 10):
                for i, shape in enumerate(shapes):
                    worker_id, _ = router.route(shape)
                    if routed[index][i] is None:
                        routed[index][i] = worker_id
                    # Sticky: a pinned shape never migrates.
                    assert router.route(shape)[0] == routed[index][i]

        _hammer(worker)
        # Every thread observed the same pin for every shape, and the
        # load tallies account for exactly one pin per shape.
        for i in range(len(shapes)):
            assert len({routed[t][i] for t in range(THREADS)}) == 1
        loads = router.loads()
        assert sum(loads.values()) == len(shapes)
        assert router.assignments().keys() == set(shapes)

    def test_forget_add_churn_keeps_router_consistent(self):
        from repro.serve.routing import ShapeRouter

        router = ShapeRouter(range(3), sanitize=True)

        def worker(index):
            for i in range(ROUNDS):
                if index == 0 and i % 10 == 9:
                    victim = (i // 10) % 3
                    router.forget_worker(victim)
                    router.add_worker(victim)
                else:
                    try:
                        worker_id, _ = router.route(f"s{(index + i) % 9}")
                    except KeyError:
                        continue   # everything momentarily dead
                    assert worker_id in range(3)

        _hammer(worker)
        live = router.workers()
        assert set(live) == {0, 1, 2}
        # Every surviving pin points at a live worker.
        assert set(router.assignments().values()) <= set(live)
