"""The serving layer: sessions, the cross-query hash-table cache, and
the `repro.api.connect` facade.

Covers the redesigned public API (one `execute`/`explain`/`sql`
signature across all three backends), warm-vs-cold cache semantics
(`ht_builds == 0` with `ht_cache_hits > 0` on a warm repeat, rows
byte-identical), explicit invalidation on catalog reload, the
session-vs-reference equivalence that replaced the old-vs-new shim
check, and fair-share grants (admission itself is `test_frontend.py`'s).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import connect
from repro.common.config import Configuration
from repro.common.errors import (
    AdmissionError,
    ConfigError,
    ReproError,
    SchedulerError,
    ValidationError,
)
from repro.common.keys import (
    KEY_CACHE_ENABLED,
    KEY_CACHE_HT_BYTES,
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_WORKERS,
)
from repro.mapreduce.fairshare import validate_shares
from repro.serve.cache import HashTableCache
from repro.serve.frontend import Frontend
from repro.serve.session import BACKENDS, Session, backend_name
from tests.store_contract import (
    HT_CACHE,
    StoreBudgetContract,
    StoreStampContract,
)
from tests.test_property_random_queries import star_queries

# --------------------------------------------------------------------- #
# Fixtures: fresh connect()-built sessions over the shared SSB data.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def clyde_session(ssb_data):
    return connect(backend="clydesdale", data=ssb_data)


@pytest.fixture(scope="module")
def hive_session(ssb_data):
    return connect(backend="hive", data=ssb_data)


@pytest.fixture(scope="module")
def ref_session(ssb_data):
    return connect(backend="reference", data=ssb_data)


# --------------------------------------------------------------------- #
# HashTableCache unit behavior.
# --------------------------------------------------------------------- #


class TestHashTableCache(StoreBudgetContract):
    config = HT_CACHE

    def test_regions_are_independent(self):
        cache = HashTableCache(1000)
        cache.put("node0", "k", "a", 10)
        assert cache.get("node1", "k") is None
        assert cache.get("node0", "k") == "a"
        cache.put("node1", "k", "b", 10)
        assert cache.stats().regions == 2
        assert cache.get("node1", "k") == "b"


# --------------------------------------------------------------------- #
# connect(): one signature, three backends.
# --------------------------------------------------------------------- #


class TestConnect:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            connect(backend="spark")

    def test_backends_constant_matches(self):
        assert BACKENDS == ("clydesdale", "hive", "reference")

    def test_all_backends_agree_via_uniform_api(
            self, clyde_session, hive_session, ref_session, queries):
        query = queries["Q2.1"]
        results = {name: session.execute(query)
                   for name, session in [("clydesdale", clyde_session),
                                         ("hive", hive_session),
                                         ("reference", ref_session)]}
        assert (results["clydesdale"].rows == results["hive"].rows
                == results["reference"].rows)
        assert (results["clydesdale"].columns == results["hive"].columns
                == results["reference"].columns)

    def test_backend_detection(self, clyde_session, hive_session,
                               ref_session):
        assert clyde_session.backend == "clydesdale"
        assert hive_session.backend == "hive"
        assert ref_session.backend == "reference"
        for session in (clyde_session, hive_session, ref_session):
            assert backend_name(session.engine) == session.backend

    def test_reference_gets_no_cache(self, ref_session):
        assert ref_session.cache is None
        assert ref_session.cache_stats() is None

    def test_cache_flag_off(self, ssb_data):
        session = connect(backend="clydesdale", data=ssb_data,
                          conf=Configuration({KEY_CACHE_ENABLED: False}))
        assert session.cache is None

    @pytest.mark.parametrize("key", [
        "mapred.map.max.attempts",      # a job key: jobs are planned fresh
        "clydesdale.sanitizer",         # registered, but read per job
        "cif.block.rows",               # deleted: the block is the group
        "clydesdale.cache.enabeld",     # a typo of a session key
    ])
    def test_conf_key_no_session_reads_is_refused(self, ssb_data, key):
        conf = Configuration({key: 1})
        with pytest.raises(ConfigError, match=key):
            connect(backend="reference", data=ssb_data, conf=conf)
        # The frontend runs the same check, before any worker is spawned.
        with pytest.raises(ConfigError, match=key):
            Frontend(data=ssb_data, conf=conf)

    def test_explain_uniform(self, clyde_session, hive_session,
                             ref_session, queries):
        from repro.serve.session import ExplainReport
        query = queries["Q2.1"]
        for session in (clyde_session, hive_session, ref_session):
            report = session.explain(query)
            assert isinstance(report, ExplainReport)
            assert "date" in report            # legacy containment
            assert "date" in str(report)       # legacy plan text
            assert report.backend == session.backend
            assert report.query_name == query.name

    def test_sql_uniform(self, clyde_session, ref_session):
        sql = ("SELECT d_year, sum(lo_revenue) AS revenue "
               "FROM lineorder, date WHERE lo_orderdate = d_datekey "
               "AND d_year = 1993 GROUP BY d_year;")
        got = clyde_session.sql(sql)
        expected = ref_session.sql(sql)
        assert got.rows == expected.rows


# --------------------------------------------------------------------- #
# Warm vs cold: the cache must skip the build phase, not change answers.
# --------------------------------------------------------------------- #


class TestWarmCold:
    # aggstore=False throughout: these tests assert hash-table cache
    # evidence on warm repeats, which the aggregate store would
    # short-circuit before the engine runs.
    def test_warm_repeat_skips_build(self, ssb_data, queries, reference):
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        query = queries["Q2.1"]
        cold = session.execute(query)
        assert session.stats().execution.ht_builds >= 1
        assert session.stats().execution.ht_cache_misses >= 1
        assert session.stats().execution.ht_cache_hits == 0

        warm = session.execute(query)
        assert session.stats().execution.ht_builds == 0
        assert session.stats().execution.ht_cache_hits > 0
        assert session.stats().execution.ht_cache_misses == 0
        assert warm.rows == cold.rows == reference.execute(query).rows
        assert warm.columns == cold.columns
        # Skipping the simulated build charge makes the warm run faster.
        assert warm.simulated_seconds <= cold.simulated_seconds

    def test_warm_counters_keep_shape(self, ssb_data, queries):
        """Per-dimension entry/scan counters are identical warm vs cold
        (the cache serves the same tables it stored)."""
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        query = queries["Q3.1"]
        session.execute(query)
        cold_entries = dict(session.stats().execution.ht_entries)
        cold_scanned = dict(session.stats().execution.ht_scanned)
        session.execute(query)
        assert cold_entries and cold_scanned
        assert session.stats().execution.ht_entries == cold_entries
        assert session.stats().execution.ht_scanned == cold_scanned

    def test_cache_shared_across_queries(self, ssb_data, queries):
        """Q2.1, Q2.2 and Q2.3 share the identical date join recipe, so
        the second query hits the cache for it."""
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        session.execute(queries["Q2.1"])
        session.execute(queries["Q2.2"])
        assert session.stats().execution.ht_cache_hits > 0

    def test_hive_mapjoin_broadcast_cached(self, ssb_data, queries,
                                           reference):
        session = connect(backend="hive", data=ssb_data, aggstore=False)
        query = queries["Q2.1"]
        cold = session.execute(query)
        assert session.stats().execution.ht_cache_misses >= 1
        warm = session.execute(query)
        assert session.stats().execution.ht_cache_hits >= 1
        assert session.stats().execution.ht_cache_misses == 0
        assert warm.rows == cold.rows == reference.execute(query).rows

    def test_tiny_budget_still_correct(self, ssb_data, queries,
                                       reference):
        """A budget too small to hold anything degrades to all-miss,
        never to wrong answers."""
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False,
                          conf=Configuration({KEY_CACHE_HT_BYTES: 1}))
        query = queries["Q2.1"]
        session.execute(query)
        result = session.execute(query)
        assert session.stats().execution.ht_cache_hits == 0
        assert session.stats().execution.ht_builds >= 1
        assert result.rows == reference.execute(query).rows
        assert session.cache_stats().rejected > 0


# --------------------------------------------------------------------- #
# Property: caching never changes answers (satellite 4).
# --------------------------------------------------------------------- #


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_cached_run_byte_identical_to_cold(query, cached_and_cold):
    cached, cold_session = cached_and_cold
    cold = cold_session.execute(query)
    first = cached.execute(query)
    repeat = cached.execute(query)  # may be served from cache
    for got in (first, repeat):
        assert got.columns == cold.columns
        assert got.rows == cold.rows  # identical values AND order


@pytest.fixture(scope="module")
def cached_and_cold(ssb_data):
    """One cache-enabled session (warms up across hypothesis examples)
    and one cache-disabled twin as the cold comparator."""
    cached = connect(backend="clydesdale", data=ssb_data)
    cold = connect(backend="clydesdale", data=ssb_data,
                   conf=Configuration({KEY_CACHE_ENABLED: False}))
    return cached, cold


# --------------------------------------------------------------------- #
# Invalidation: reload_catalog must never serve stale dimension rows.
# --------------------------------------------------------------------- #


class TestInvalidation:
    def test_reload_catalog_invalidates(self, ssb_data, queries):
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator

        session = connect(backend="clydesdale", data=ssb_data)
        query = queries["Q2.1"]
        old = session.execute(query)
        assert len(session.cache) > 0

        new_data = SSBGenerator(scale_factor=0.002, seed=7).generate()
        session.reload_catalog(new_data)
        assert len(session.cache) == 0
        assert session.cache.generation == 1

        fresh = session.execute(query)
        assert session.stats().execution.ht_builds >= 1  # cold rebuild
        assert session.stats().execution.ht_cache_hits == 0
        expected = ReferenceEngine.from_ssb(new_data).execute(query)
        assert fresh.rows == expected.rows
        assert fresh.rows != old.rows  # different seed, different data

    def test_invalidate_cache_forces_rebuild(self, ssb_data, queries):
        session = connect(backend="clydesdale", data=ssb_data)
        query = queries["Q2.1"]
        session.execute(query)
        session.invalidate_cache()
        session.execute(query)
        assert session.stats().execution.ht_builds >= 1
        assert session.stats().execution.ht_cache_hits == 0

    def test_reload_requires_rebuild_factory(self, clydesdale):
        session = Session(clydesdale.engine, cache=HashTableCache(1024))
        with pytest.raises(ValidationError, match="rebuild"):
            session.reload_catalog(None)


# --------------------------------------------------------------------- #
# The shims are gone (tests/test_one_way_in.py pins their absence); what
# their old-vs-new checks protected is now session vs reference.
# --------------------------------------------------------------------- #


class TestDeprecationShims:
    def test_old_and_new_paths_identical_all_queries(
            self, ssb_data, queries, reference):
        """A cache-less session — what the deleted ``engine.execute``
        shim built — answers every SSB query exactly like a
        ``connect()`` session and like the reference engine."""
        session = connect(backend="clydesdale", data=ssb_data,
                          conf=Configuration({KEY_CACHE_ENABLED: False}))
        bare = Session(session.engine)
        for name, query in queries.items():
            new = session.execute(query)
            old = bare.execute(query)
            assert old.columns == new.columns, name
            assert old.rows == new.rows == reference.execute(query).rows, \
                name
            assert old.simulated_seconds == pytest.approx(
                new.simulated_seconds), name
            assert old.breakdown == pytest.approx(new.breakdown), name

    def test_old_and_new_paths_identical_hive(self, ssb_data, queries,
                                              reference):
        session = connect(backend="hive", data=ssb_data,
                          conf=Configuration({KEY_CACHE_ENABLED: False}))
        bare = Session(session.engine)
        for name in ("Q1.1", "Q2.1", "Q3.1", "Q4.1"):
            query = queries[name]
            new = session.execute(query)
            old = bare.execute(query)
            assert old.rows == new.rows == reference.execute(query).rows, \
                name
            assert old.simulated_seconds == pytest.approx(
                new.simulated_seconds), name

    def test_legacy_trace_semantics_preserved(self, ssb_data, queries):
        """The engine's subtree keeps its shape — one ``query:<name>``
        span over plan and job — now always rooted under the session's
        span: there is no engine-owned tree any more."""
        session = connect(backend="clydesdale", data=ssb_data,
                          conf=Configuration({KEY_CACHE_ENABLED: False}))
        session.execute(queries["Q1.1"], trace=True)
        tree = session.last_trace
        (root,) = tree.roots()
        assert root.name == "session:Q1.1"
        assert [s.name for s in tree.children(root)] == ["query:Q1.1"]
        (engine_span,) = tree.find("query:Q1.1")
        assert {"plan", "job"} <= {
            s.name for s in tree.children(engine_span)}

    def test_reference_accepts_trace_kwarg(self, reference, queries):
        # Satellite 1: uniform signature — the oracle ignores trace=.
        result = reference.execute(queries["Q1.1"], trace=True)
        assert result.rows == reference.execute(queries["Q1.1"]).rows


# --------------------------------------------------------------------- #
# Session tracing.
# --------------------------------------------------------------------- #


class TestSessionTrace:
    def test_session_span_wraps_engine_tree(self, ssb_data, queries):
        session = connect(backend="clydesdale", data=ssb_data, name="alice")
        session.execute(queries["Q2.1"], trace=True)
        tree = session.last_trace
        assert tree is not None and tree.violations() == []
        roots = tree.roots()
        assert [s.name for s in roots] == ["session:Q2.1"]
        assert roots[0].attrs["backend"] == "clydesdale"
        assert roots[0].attrs["session"] == "alice"
        children = {s.name for s in tree.children(roots[0])}
        assert "query:Q2.1" in children and "cache" in children

    def test_cache_span_carries_delta(self, ssb_data, queries):
        # aggstore=False: the warm repeat must reach the engine so the
        # cache span has a hit delta to carry.
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        session.execute(queries["Q2.1"], trace=True)
        cold_span = session.last_trace.find("cache")[0]
        assert cold_span.attrs["misses"] > 0
        assert cold_span.attrs["hits"] == 0
        session.execute(queries["Q2.1"], trace=True)
        warm_span = session.last_trace.find("cache")[0]
        assert warm_span.attrs["hits"] > 0
        assert warm_span.attrs["misses"] == 0
        assert warm_span.attrs["entries"] > 0

    def test_trace_mirrored_onto_engine(self, ssb_data, queries):
        session = connect(backend="clydesdale", data=ssb_data)
        session.execute(queries["Q2.1"], trace=True)
        execution = session.stats().execution
        assert execution.trace is session.last_trace
        assert execution.phases  # build/scan/probe totals

    def test_untraced_by_default(self, clyde_session, queries):
        clyde_session.execute(queries["Q1.1"])
        assert clyde_session.last_trace is None

    def test_hive_session_trace(self, ssb_data, queries):
        session = connect(backend="hive", data=ssb_data, aggstore=False)
        session.execute(queries["Q2.1"], trace=True)
        tree = session.last_trace
        assert tree.violations() == []
        assert [s.name for s in tree.roots()] == ["session:Q2.1"]

    def test_reference_session_trace(self, ref_session, queries):
        ref_session.execute(queries["Q1.1"], trace=True)
        tree = ref_session.last_trace
        assert [s.name for s in tree.roots()] == ["session:Q1.1"]


# --------------------------------------------------------------------- #
# Admission control.
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_admission_error_typed(self):
        err = AdmissionError("full", reason="saturated", session="a")
        assert isinstance(err, ReproError)
        assert err.reason == "saturated" and err.session == "a"

    def test_concurrent_clients_share_cache(self, ssb_data, queries):
        # Every session of a frontend reaches the same worker shard:
        # the first client builds the tables, the rest hit its cache.
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_RESULT_CACHE: False,
                             KEY_SERVE_AGGSTORE: False}))
        try:
            query = queries["Q2.1"]
            clients = [front.session(f"c{i}") for i in range(4)]
            rows = [client.execute(query).rows for client in clients]
            assert all(r == rows[0] for r in rows)
            assert clients[0].last_summary["ht_builds"] >= 1
            assert all(c.last_summary["ht_builds"] == 0
                       for c in clients[1:])
            assert clients[-1].last_summary["ht_cache_hits"] > 0
        finally:
            front.close()

    def test_fair_share_slows_simulated_time(self, ssb_data, queries):
        # A session's share rides every execute to the worker: a
        # quarter of the map slots means a longer simulated run over
        # identical rows. No frontend store: both must reach a worker.
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_RESULT_CACHE: False,
                             KEY_SERVE_AGGSTORE: False}))
        try:
            full = front.session("full")
            quarter = front.session("quarter", share=0.25)
            query = queries["Q2.1"]
            full.execute(query)              # cold: builds the tables
            r_full = full.execute(query)
            r_quarter = quarter.execute(query)
            assert r_quarter.rows == r_full.rows
            assert r_quarter.simulated_seconds > r_full.simulated_seconds
        finally:
            front.close()


class TestValidateShares:
    def test_ok(self):
        shares = {"a": 0.5, "b": 0.5}
        assert validate_shares(shares) is shares

    def test_empty_ok(self):
        assert validate_shares({}) == {}

    def test_nonpositive_rejected(self):
        with pytest.raises(SchedulerError):
            validate_shares({"a": 0.0})

    def test_above_one_rejected(self):
        with pytest.raises(SchedulerError):
            validate_shares({"a": 1.5})

    def test_oversubscription_rejected(self):
        with pytest.raises(SchedulerError):
            validate_shares({"a": 0.6, "b": 0.6})


# --------------------------------------------------------------------- #
# Generation-stamped invalidation (the scale-out frontend's barrier-free
# shard protocol) and the worker-facing execute path.
# --------------------------------------------------------------------- #


class TestGenerationStamps(StoreStampContract):
    config = HT_CACHE

    def test_session_stale_stamp_keeps_jvms_warm(self, ssb_data,
                                                 queries):
        session = connect(backend="clydesdale", data=ssb_data)
        session.execute(queries["Q1.1"])
        session.invalidate_cache(generation=2)
        pool = session._jvm_pool()
        session.execute(queries["Q1.1"])
        assert pool
        warm = dict(pool)
        # Replaying an old stamp must not re-cool the warm JVM pool.
        assert session.invalidate_cache(generation=1) is False
        assert session._jvm_pool() == warm
        assert session.invalidate_cache(generation=3) is True
        assert session._jvm_pool() == {}

    def test_reload_catalog_threads_generation(self, ssb_data):
        from repro.ssb.datagen import SSBGenerator
        session = connect(backend="clydesdale", data=ssb_data)
        data2 = SSBGenerator(scale_factor=0.002, seed=3).generate()
        session.reload_catalog(data2, generation=7)
        assert session.cache.generation == 7


class TestExecuteFor:
    def test_same_share_is_plain_execute(self, ssb_data, queries):
        session = connect(backend="clydesdale", data=ssb_data)
        plain = session.execute(queries["Q1.1"])
        same = session.execute_for(queries["Q1.1"], slot_share=None)
        assert same.rows == plain.rows

    def test_borrowed_share_changes_timing_not_rows(self, ssb_data,
                                                    queries):
        session = connect(backend="clydesdale", data=ssb_data)
        query = queries["Q2.1"]
        session.execute(query)           # cold: populate the cache
        full = session.execute(query)    # warm full-share baseline
        halved = session.execute_for(query, slot_share=0.5)
        assert halved.rows == full.rows
        assert halved.simulated_seconds > full.simulated_seconds
        # The borrowed run must not mutate this session's own share.
        assert session.slot_share is None
        assert session.execute(query).simulated_seconds == \
            pytest.approx(full.simulated_seconds)
