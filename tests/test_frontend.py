"""Scale-out serving frontend: routing, result cache, differential
correctness against the single-process session and the reference
engine, admission under stalled workers, and property tests.

The frontend forks real worker processes, so the heavyweight fixtures
are module-scoped; the process-free units (``query_shape``,
``ShapeRouter``, ``ResultCache``) run everywhere hypothesis takes them.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.common.config import Configuration
from repro.common.errors import AdmissionError, ValidationError
from repro.common.keys import (
    KEY_CACHE_ENABLED,
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_MAX_CONCURRENT,
    KEY_SERVE_QUEUE_DEPTH,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_SESSION_QUOTA,
    KEY_SERVE_WORKERS,
)
from repro.core.expressions import And
from repro.core.result import QueryResult
from repro.serve.frontend import Frontend, ResultCache
from repro.serve.routing import ShapeRouter, query_shape, result_key
from repro.serve.session import Session
from repro.trace.tracer import CAT_FRONTEND, CAT_ROUTE, CAT_WORKER
from tests.store_contract import (
    RESULT_CACHE,
    StoreBudgetContract,
    StoreStampContract,
)


@pytest.fixture(scope="module")
def frontend_session(ssb_data):
    # aggstore=False: this battery asserts worker routing and shard
    # warmness, which the aggregate store would short-circuit.
    handle = connect(backend="clydesdale", data=ssb_data, workers=4,
                     name="frontend-tests", aggstore=False)
    yield handle
    handle.frontend.close()


@pytest.fixture(scope="module")
def plain_session(ssb_data):
    return connect(backend="clydesdale", data=ssb_data)


def _result(name="q", rows=(("a", 1),)):
    return QueryResult(query_name=name, columns=["c1", "c2"],
                       rows=[list(r) for r in rows],
                       simulated_seconds=0.0, breakdown={})


class TestQueryShape:
    def test_shape_ignores_literals_and_limit(self, queries):
        base = queries["Q2.1"]
        variant = dataclasses.replace(base, name="Q2.1-x", limit=3)
        assert query_shape(base) == query_shape(variant)
        assert result_key(base) != result_key(variant)

    def test_shape_is_join_order_insensitive(self, queries):
        base = queries["Q2.1"]
        flipped = dataclasses.replace(
            base, joins=list(reversed(base.joins)))
        assert query_shape(base) == query_shape(flipped)

    def test_distinct_group_by_distinct_shape(self, queries):
        # The group-by set determines the hash tables' aux payloads,
        # so it must split the shape.
        base = queries["Q2.1"]
        trimmed = dataclasses.replace(
            base, group_by=list(base.group_by[:1]), order_by=[])
        assert query_shape(base) != query_shape(trimmed)

    def test_distinct_queries_distinct_result_keys(self, queries):
        keys = {result_key(q) for q in queries.values()}
        assert len(keys) == len(queries)


class TestShapeRouter:
    def test_sticky_and_least_loaded(self):
        router = ShapeRouter([0, 1, 2])
        first, warm = router.route("s1")
        assert not warm
        again, warm = router.route("s1")
        assert (again, warm) == (first, True)
        others = {router.route(f"s{i}")[0] for i in range(2, 5)}
        assert router.loads() == {0: 2, 1: 1, 2: 1} or \
            sum(router.loads().values()) == 4
        assert others  # every shape found a worker

    def test_ties_break_on_lowest_worker_id(self):
        router = ShapeRouter([3, 1, 2])
        assert router.route("a")[0] == 1
        assert router.route("b")[0] == 2
        assert router.route("c")[0] == 3
        assert router.route("d")[0] == 1

    def test_forget_worker_drops_pins_and_repins_cold(self):
        router = ShapeRouter([0, 1])
        victim = router.route("s")[0]
        router.forget_worker(victim)
        assert victim not in router.workers()
        worker, warm = router.route("s")
        assert worker != victim and not warm
        # A respawned worker (same id) must not look warm either.
        router.forget_worker(worker)
        router.add_worker(worker)
        rerouted, warm = router.route("s")
        assert not warm
        assert rerouted in router.workers()

    def test_no_live_workers_raises(self):
        router = ShapeRouter([0])
        router.forget_worker(0)
        with pytest.raises(KeyError):
            router.route("s")

    def test_peek_is_read_only(self):
        # peek predicts route() without pinning the shape or bumping
        # any load: the next real route must still come up cold.
        router = ShapeRouter([0, 1])
        would_be, warm = router.peek("s")
        assert not warm
        assert router.loads() == {0: 0, 1: 0}
        assert router.assignments() == {}
        assert router.route("s") == (would_be, False)
        assert router.peek("s") == (would_be, True)  # pinned now
        router.forget_worker(0)
        router.forget_worker(1)
        with pytest.raises(KeyError):
            router.peek("s")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5))
    def test_routing_is_deterministic_per_shape(self, stream, workers):
        # The same shape stream through two fresh routers produces the
        # same pins: assignment is a function of new-shape arrival
        # order, never of timing.
        ids = list(range(workers))
        a, b = ShapeRouter(ids), ShapeRouter(ids)
        for shape in stream:
            assert a.route(shape) == b.route(shape)
        assert a.assignments() == b.assignments()
        # And every repeat within one router stays pinned (warm).
        for shape in set(stream):
            worker, warm = a.route(shape)
            assert warm and worker == a.assignments()[shape]


class TestResultCache(StoreBudgetContract, StoreStampContract):
    config = RESULT_CACHE

    # The frontend's own view of the store: lookup/store on one region.

    def test_roundtrip_and_lru_eviction(self):
        cache = ResultCache(budget_bytes=300)
        for i in range(3):
            assert cache.store(f"k{i}", _result(f"q{i}"), 100)
        cache.lookup("k0")                      # refresh k0
        cache.store("k3", _result("q3"), 100)  # evicts k1 (LRU)
        assert cache.lookup("k1") is None
        assert cache.lookup("k0") is not None
        stats = cache.stats()
        assert stats.evictions == 1 and stats.entries == 3
        assert stats.bytes_cached == 300

    def test_store_refuses_stale_generation(self):
        # A result computed before a reload must die at store(): were
        # it accepted, it would be stamped with the *new* generation
        # and served as fresh to every later identical query.
        cache = ResultCache(budget_bytes=1024)
        snapshot = cache.current_generation()
        cache.invalidate(generation=snapshot + 1)   # reload mid-flight
        assert not cache.store("k", _result(), 10, generation=snapshot)
        assert cache.lookup("k") is None
        stats = cache.stats()
        assert stats.stale_drops == 1 and stats.entries == 0
        # A stamp matching the live generation stores normally.
        assert cache.store("k", _result(), 10,
                           generation=cache.current_generation())
        assert cache.lookup("k") is not None


class TestDifferential:
    def test_all_queries_match_session_and_reference(
            self, frontend_session, plain_session, reference, queries):
        # The whole SSB suite through 4 worker processes must be
        # byte-identical to the single-process session and the oracle.
        for query in queries.values():
            scaled = frontend_session.execute(query)
            single = plain_session.execute(query)
            oracle = reference.execute(query)
            assert scaled.rows == single.rows == oracle.rows, query.name
            assert scaled.columns == single.columns

    def test_differential_holds_with_tracing_on(
            self, frontend_session, reference, queries):
        for name in ("Q1.1", "Q2.1", "Q4.3"):
            query = queries[name]
            traced = frontend_session.execute(query, trace=True)
            assert traced.rows == reference.execute(query).rows
            tree = frontend_session.last_trace
            assert tree is not None
            cats = {span.category for span in tree.spans}
            assert CAT_FRONTEND in cats
            # A result-cache hit never reaches route/worker spans; a
            # worker-served query must show both.
            if frontend_session.last_summary["source"] == "worker":
                assert {CAT_ROUTE, CAT_WORKER} <= cats

    def test_untraced_executes_leave_no_tree(self, frontend_session,
                                             queries):
        frontend_session.execute(queries["Q1.2"], trace=False)
        assert frontend_session.last_trace is None

    def test_sql_and_explain_surface(self, frontend_session,
                                     plain_session):
        sql = ("SELECT d_year, sum(lo_revenue) AS revenue "
               "FROM lineorder, date WHERE lo_orderdate = d_datekey "
               "AND d_year = 1993 GROUP BY d_year;")
        assert frontend_session.sql(sql).rows == \
            plain_session.sql(sql).rows
        text = frontend_session.explain(
            __import__("repro.ssb.queries",
                       fromlist=["ssb_queries"]).ssb_queries()["Q2.1"])
        assert "lineorder" in text


class TestWarmRouting:
    def test_repeat_shape_builds_nothing(self, frontend_session,
                                         queries):
        base = queries["Q3.1"]
        frontend_session.execute(
            dataclasses.replace(base, name="Q3.1-warmup", limit=9))
        warm = dataclasses.replace(base, name="Q3.1-repeat", limit=4)
        frontend_session.execute(warm)
        summary = frontend_session.last_summary
        assert summary["source"] == "worker"
        assert summary["warm_route"] is True
        assert summary["ht_builds"] == 0

    def test_repeat_shapes_stay_on_one_worker(self, frontend_session,
                                              queries):
        base = queries["Q3.4"]
        seen = set()
        for i in range(3):
            frontend_session.execute(dataclasses.replace(
                base, name=f"Q3.4-v{i}", limit=i + 1))
            seen.add(frontend_session.last_summary["worker"])
        assert len(seen) == 1

    def test_respelled_queries_route_warm_and_build_nothing(
            self, frontend_session, queries):
        # Shape and hash-table key are cut from one canonical form: a
        # commuted join predicate or a reordered GROUP BY lands on the
        # same worker *and* finds its tables there (a "warm" route
        # that still built was the router's blind spot).
        base = queries["Q1.3"]
        commuted = dataclasses.replace(base, name="Q1.3-commuted", joins=[
            dataclasses.replace(
                j, predicate=And(list(reversed(j.predicate.parts))))
            if isinstance(j.predicate, And) else j for j in base.joins])
        first = dataclasses.replace(
            queries["Q2.3"], name="Q2.3-cb", order_by=[],
            group_by=["p_category", "p_brand1", "d_year"])
        second = dataclasses.replace(
            first, name="Q2.3-bc",
            group_by=["p_brand1", "p_category", "d_year"])
        for cold, warm in ((base.with_name("Q1.3-base"), commuted),
                           (first, second)):
            frontend_session.execute(cold)
            worker = frontend_session.last_summary["worker"]
            frontend_session.execute(warm)
            summary = frontend_session.last_summary
            assert summary["source"] == "worker"
            assert summary["worker"] == worker
            assert summary["warm_route"] is True
            assert summary["ht_builds"] == 0

    def test_explain_does_not_fake_a_warm_route(self, ssb_data,
                                                queries):
        # EXPLAIN must not pin the shape or count as load: the first
        # real execute after an explain is still a cold route, and the
        # warm-route counters (the ht_builds==0 evidence) stay honest.
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 2,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("explainer")
            query = queries["Q2.2"]
            handle.explain(query)
            assert sum(front.router_snapshot().values()) == 0
            handle.execute(query)
            assert handle.last_summary["warm_route"] is False
            assert front.stats().routed_warm == 0
        finally:
            front.close()

    def test_exact_repeat_served_from_result_cache(
            self, frontend_session, queries):
        query = dataclasses.replace(queries["Q1.3"], name="Q1.3-rc")
        first = frontend_session.execute(query)
        again = frontend_session.execute(query)
        assert frontend_session.last_summary["source"] == "result_cache"
        assert again.rows == first.rows
        # The cached copy must not alias the rows handed out earlier.
        again.rows.append(["mutated"])
        assert frontend_session.execute(query).rows == first.rows


class TestReloadGenerations:
    def test_reload_invalidates_results_and_shards(self, ssb_data,
                                                   queries):
        from repro.ssb.datagen import SSBGenerator
        handle = connect(backend="clydesdale", data=ssb_data, workers=2,
                         name="reload-test")
        front = handle.frontend
        try:
            query = queries["Q1.1"]
            before = handle.execute(query)
            handle.execute(query)
            assert handle.last_summary["source"] == "result_cache"
            data2 = SSBGenerator(scale_factor=0.002, seed=9).generate()
            gen = front.reload_catalog(data2)
            assert gen == 1
            after = handle.execute(query)
            assert handle.last_summary["source"] == "worker"
            assert after.rows != before.rows
            oracle = connect(backend="reference", data=data2)
            assert after.rows == oracle.execute(query).rows
            # Every live shard carries the frontend's generation.
            for info in front.worker_stats():
                assert info["alive"] and info["generation"] == gen
        finally:
            front.close()

    def test_in_flight_result_never_cached_across_reload(self, ssb_data,
                                                         queries):
        # A query still executing on the *old* catalog when
        # reload_catalog commits must not land in the result cache
        # stamped fresh: its stamp is the generation it executed
        # under, so store() refuses it and the next identical query
        # reaches a worker holding the new catalog.
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({KEY_SERVE_WORKERS: 1}))
        try:
            handle = front.session("inflight")
            query = queries["Q1.1"]
            data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
            oracle2 = ReferenceEngine.from_ssb(data2).execute(query).rows
            front._workers[0].post(("poison", "stall:0.5"))
            failures: list[BaseException] = []

            def slow():
                try:
                    handle.execute(query)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)   # let the execute reach the worker
            front.reload_catalog(data2)
            thread.join()
            assert not failures
            after = front.session("check").execute(query)
            assert after.rows == oracle2
        finally:
            front.close()

    def test_stale_generation_messages_are_noops(self, ssb_data,
                                                 queries):
        handle = connect(backend="clydesdale", data=ssb_data, workers=1,
                         name="stale-gen-test")
        front = handle.frontend
        try:
            handle.execute(queries["Q1.2"])
            gen = front.invalidate_caches()
            worker = front._workers[0]
            # Replay an old stamp: the shard must ignore it.
            worker.post(("invalidate", gen - 1))
            worker.post(("invalidate", gen))
            info, _ = worker.request(("stats",))
            assert info["generation"] == gen
            assert info["cache_invalidations"] == 1
        finally:
            front.close()


class TestFrontendAdmission:
    def test_saturation_with_stalled_worker(self, ssb_data, queries):
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_MAX_CONCURRENT: 1,
                             KEY_SERVE_QUEUE_DEPTH: 0,
                             KEY_SERVE_SESSION_QUOTA: 4,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            first = front.session("a")
            second = front.session("b")
            front._workers[0].post(("poison", "stall:0.8"))
            query = queries["Q1.1"]
            errors: list[BaseException] = []

            def stalled():
                try:
                    first.execute(query)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=stalled)
            thread.start()
            for _ in range(400):   # wait for the stalled admit
                if front.stats().in_flight == 1:
                    break
                time.sleep(0.005)
            assert front.stats().in_flight == 1
            with pytest.raises(AdmissionError) as excinfo:
                second.execute(query)
            assert excinfo.value.reason == "saturated"
            thread.join()
            assert not errors
            stats = front.stats()
            assert stats.rejected == 1
            assert stats.completed == 1
            assert stats.in_flight == 0
        finally:
            front.close()

    def test_session_quota_enforced(self, ssb_data, queries):
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_MAX_CONCURRENT: 4,
                             KEY_SERVE_QUEUE_DEPTH: 4,
                             KEY_SERVE_SESSION_QUOTA: 1,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("quota")
            handle.in_flight = 1   # as if one query were outstanding
            with pytest.raises(AdmissionError) as excinfo:
                handle.execute(queries["Q1.1"])
            assert excinfo.value.reason == "session-quota"
            handle.in_flight = 0
        finally:
            front.close()

    def test_closed_frontend_rejects(self, ssb_data, queries):
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({KEY_SERVE_WORKERS: 1}))
        handle = front.session("late")
        front.close()
        generation = front.stats().generation
        # Nothing is admitted, and nothing is broadcast to the
        # shut-down workers, once the frontend is closed.
        for refused in (lambda: handle.execute(queries["Q1.1"]),
                        front.invalidate_caches,
                        lambda: front.reload_catalog(ssb_data)):
            with pytest.raises(AdmissionError) as excinfo:
                refused()
            assert excinfo.value.reason == "closed"
        assert front.stats().generation == generation

    def test_share_validation(self, ssb_data):
        from repro.common.errors import SchedulerError
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({KEY_SERVE_WORKERS: 1}))
        try:
            front.session("big", share=0.8)
            with pytest.raises(SchedulerError):
                front.session("bigger", share=0.5)
            assert "bigger" not in front._sessions
        finally:
            front.close()

    def test_no_orphaned_sessions_after_random_stream(
            self, frontend_session, queries):
        # Randomized closed-loop burst on the shared frontend: after
        # the dust settles no session (and no frontend counter) may be
        # left holding in-flight state.
        front = frontend_session.frontend
        rng = random.Random(7)
        names = list(queries)
        sessions = [front.session(f"orphan{i}") for i in range(6)]
        failures: list[BaseException] = []

        def client(handle):
            try:
                for _ in range(4):
                    base = queries[rng.choice(names)]
                    query = dataclasses.replace(
                        base, name=f"{base.name}-{handle.name}",
                        limit=rng.randint(1, 6))
                    try:
                        handle.execute(query)
                    except AdmissionError:
                        pass
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert front.stats().in_flight == 0
        for handle in sessions:
            assert handle.in_flight == 0
            handle.close()
        assert "orphan0" not in front._sessions


class TestConnectIntegration:
    def test_connect_workers_returns_frontend_session(
            self, frontend_session):
        from repro.serve.frontend import FrontendSession
        assert isinstance(frontend_session, FrontendSession)
        assert frontend_session.frontend.workers == 4

    def test_workers_must_be_positive(self, ssb_data):
        with pytest.raises(ValidationError):
            connect(backend="clydesdale", data=ssb_data, workers=0)

    def test_single_process_connect_unchanged(self, plain_session):
        assert isinstance(plain_session, Session)


#: Every reuse layer off: each execute must rebuild its hash tables,
#: whichever route the configuration took to reach the engine.
NO_REUSE = {KEY_CACHE_ENABLED: False, KEY_SERVE_RESULT_CACHE: False,
            KEY_SERVE_AGGSTORE: False}


def _execute_twice(handle, query):
    """(rows, ht_builds) of two executes through either session kind."""
    out = []
    for _ in range(2):
        rows = handle.execute(query).rows
        summary = getattr(handle, "last_summary", None)
        builds = (summary["ht_builds"] if summary is not None
                  else handle.stats().execution.ht_builds)
        out.append((rows, builds))
    return out


class TestOneConfiguration:
    """A ``conf`` value means the same thing in-process and behind the
    worker pipe (it used to be dropped on the way to the workers)."""

    @pytest.mark.parametrize("workers", [None, 1])
    def test_reuse_off_rebuilds_on_both_routes(self, ssb_data, queries,
                                               reference, workers):
        query = queries["Q2.1"]
        handle = connect("clydesdale", data=ssb_data, workers=workers,
                         conf=Configuration(NO_REUSE))
        try:
            runs = _execute_twice(handle, query)
        finally:
            if workers is not None:
                handle.frontend.close()
        expected = reference.execute(query).rows
        assert runs == [(expected, 1), (expected, 1)]

    def test_cacheless_worker_reports_nothing_cached_and_its_generation(
            self, ssb_data, queries):
        handle = connect("clydesdale", data=ssb_data, workers=1,
                         conf=Configuration(NO_REUSE))
        front = handle.frontend
        try:
            handle.execute(queries["Q2.1"])
            handle.execute(queries["Q2.1"])
            (info,) = front.worker_stats()
            assert info["cache_entries"] == 0
            assert info["generation"] == front.generation == 0
            assert handle.last_summary["generation"] == 0
            # A worker without a cache shard still tracks the
            # frontend's clock: the result-cache stamp and the
            # reload-recovery replay read it.
            generation = front.reload_catalog(ssb_data)
            (info,) = front.worker_stats()
            assert info["generation"] == generation == 1
            handle.execute(queries["Q2.1"])
            assert handle.last_summary["generation"] == generation
        finally:
            front.close()
