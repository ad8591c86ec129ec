"""A cold query builds each hash table once per host, not once per
simulated node.

The functional engine runs a job's node tasks one after another in one
process. Under JVM reuse a task whose node-local dimension copies are
the same bytes as those another task of the job built from adopts that
table instead of decoding the copy and building it again. What the
model and the counters describe is unchanged: every node still pays its
build (``ht_builds``, ``ht_entries:*``, session-cache misses and puts,
simulated seconds), and each node still reads its own copy first, so a
lost copy still fails the attempt.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.core.canonical import CanonicalQuery
from repro.core.engine import ClydesdaleEngine
from repro.core.joinjob import StarJoinMapper, resolve_aux_columns
from repro.core.planner import ClydesdaleFeatures
from repro.mapreduce.counters import Counters
from repro.reference.engine import ReferenceEngine
from repro.serve.cache import HashTableCache
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.loader import dim_cache_name, refresh_dim_cache, write_dim_cache
from repro.ssb.queries import ssb_queries
from repro.ssb.schema import SCHEMAS

NODES = 3

#: ``simulated_seconds`` of the 13 queries on :func:`_engine`'s cluster
#: through a cache-carrying session — each cold (cache invalidated
#: first), then each warm — as computed before tables were adopted.
GOLDEN_SIMULATED_S = {
    "cold": {
        "Q1.1": 11.03697859362286, "Q1.2": 11.036966032934497,
        "Q1.3": 11.036966030044574, "Q2.1": 11.03785407061768,
        "Q2.2": 11.036988824816634, "Q2.3": 11.036940920227531,
        "Q3.1": 11.037281900597085, "Q3.2": 11.036940920227531,
        "Q3.3": 11.036940920227531, "Q3.4": 11.036940920227531,
        "Q4.1": 11.037992900052556, "Q4.2": 11.038041110290497,
        "Q4.3": 11.037565663602443},
    "warm": {
        "Q1.1": 10.03697859362286, "Q1.2": 10.036966032934496,
        "Q1.3": 10.036966030044574, "Q2.1": 10.03785407061768,
        "Q2.2": 10.010026324816634, "Q2.3": 10.009978420227531,
        "Q3.1": 10.037281900597083, "Q3.2": 10.00572842022753,
        "Q3.3": 10.00572842022753, "Q3.4": 10.036940920227531,
        "Q4.1": 10.011030400052556, "Q4.2": 10.011078610290497,
        "Q4.3": 10.005603163602443},
}


@pytest.fixture(scope="module")
def data():
    return SSBGenerator(scale_factor=0.002, seed=42).generate()


def _engine(data) -> ClydesdaleEngine:
    """Three nodes, small row groups: one map task per node."""
    return ClydesdaleEngine.with_ssb_data(data=data, num_nodes=NODES,
                                          row_group_size=1_000)


def _cached(engine) -> Session:
    return Session(engine, cache=HashTableCache(1 << 27))


@pytest.fixture
def build_calls(monkeypatch):
    """Count the job's real table builds, by dimension. (The planner's
    FK-range derivation filters a dimension with the same
    ``from_columns``, but builds no table for a task.)"""
    calls: list[str] = []
    original = StarJoinMapper._build_one_table

    def spy(self, context, join, *args, **kwargs):
        calls.append(join.dimension)
        return original(self, context, join, *args, **kwargs)

    monkeypatch.setattr(StarJoinMapper, "_build_one_table", spy)
    return calls


def _node_table(session: Session, query, node: str, dimension: str):
    """The table ``session``'s cache holds for ``dimension`` on
    ``node``."""
    join = next(j for j in query.joins if j.dimension == dimension)
    key = CanonicalQuery(query).table_key(
        join, resolve_aux_columns(query, join, SCHEMAS))
    return session.cache.get(node, key)[0]


@pytest.mark.parametrize("cache", [True, False],
                         ids=["session-cache", "jvm-state"])
def test_cold_query_builds_each_table_once(data, build_calls, cache):
    engine = _engine(data)
    session = _cached(engine) if cache else Session(engine)
    query = ssb_queries()["Q2.1"]
    result = session.execute(query)
    stats = session.stats().execution
    assert stats.job.num_map_tasks == NODES
    assert sorted(build_calls) == sorted(j.dimension for j in query.joins)
    # The cluster still builds on every node.
    assert stats.ht_builds == NODES
    assert stats.ht_tables_adopted == (NODES - 1) * len(query.joins)
    assert stats.ht_scanned["supplier"] == NODES * len(data.supplier)
    if cache:
        assert stats.ht_cache_misses == NODES * len(query.joins)
        assert session.cache_stats().puts == NODES * len(query.joins)
    assert result.rows == ReferenceEngine.from_ssb(data).execute(query).rows


def test_simulated_seconds_unchanged(data):
    session = _cached(_engine(data))
    for phase, expected in GOLDEN_SIMULATED_S.items():
        for name, query in ssb_queries().items():
            if phase == "cold":
                session.invalidate_cache()
            got = session.execute(query).simulated_seconds
            assert got == expected[name], (phase, name)


def test_build_span_says_what_was_adopted(data):
    session = _cached(_engine(data))
    session.execute(ssb_queries()["Q2.1"], trace=True)
    facts = [span.attrs["read:part"] for span in session.last_trace.spans
             if span.name == "build"]
    assert len(facts) == NODES
    assert "adopted" not in facts[0]
    assert all(fact["adopted"] is True for fact in facts[1:])
    assert all(fact["rows_scanned"] == facts[0]["rows_scanned"]
               for fact in facts)


def test_rewritten_equal_copy_is_adopted(data, build_calls):
    engine = _engine(data)
    node = engine.fs.live_nodes()[1]
    before = engine.fs.datanode(node).scratch_read(dim_cache_name("part"))
    refresh_dim_cache(engine.fs, engine.catalog, node)
    after = engine.fs.datanode(node).scratch_read(dim_cache_name("part"))
    assert after is not before and after == before
    session = _cached(engine)
    query = ssb_queries()["Q2.1"]
    session.execute(query)
    assert len(build_calls) == len(query.joins)
    assert (session.stats().execution.ht_tables_adopted
            == (NODES - 1) * len(query.joins))
    nodes = engine.fs.live_nodes()
    assert (_node_table(session, query, nodes[1], "part")
            is _node_table(session, query, nodes[0], "part"))


def test_different_copy_builds_its_own(data, build_calls):
    engine = _engine(data)
    nodes = engine.fs.live_nodes()
    write_dim_cache(engine.fs, "supplier", SCHEMAS["supplier"],
                    data.supplier[:-3], node_id=nodes[1])
    session = _cached(engine)
    query = ssb_queries()["Q2.1"]
    session.execute(query)
    assert build_calls.count("supplier") == 2
    assert build_calls.count("part") == 1
    own = _node_table(session, query, nodes[1], "supplier")
    first = _node_table(session, query, nodes[0], "supplier")
    assert own is not first
    assert own.stats.rows_scanned == len(data.supplier) - 3
    # The third node's copy is the first node's bytes: it adopts.
    assert _node_table(session, query, nodes[2], "supplier") is first


def test_lost_copy_fails_the_attempt_and_retries(data):
    engine = _engine(data)
    victim = engine.fs.live_nodes()[1]
    del engine.fs.datanode(victim)._scratch[dim_cache_name("date")]
    session = _cached(engine)
    query = ssb_queries()["Q2.1"]
    result = session.execute(query)
    stats = session.stats().execution
    assert stats.job.counters.get(Counters.GROUP_MAP, "task_retries") >= 1
    assert result.rows == ReferenceEngine.from_ssb(data).execute(query).rows


def test_single_threaded_arm_still_counts_a_build_per_task(data,
                                                          build_calls):
    """Section 6.5's arm without JVM reuse adopts like any other job,
    but every task still counts (and is charged) its own build."""
    engine = _engine(data)
    query = ssb_queries()["Q2.1"]
    Session(engine, features=ClydesdaleFeatures(
        multithreaded=False)).execute(query)
    stats = engine.last_stats
    tasks = stats.job.num_map_tasks
    assert tasks > NODES
    assert stats.ht_builds == tasks
    assert sorted(build_calls) == sorted(j.dimension for j in query.joins)
    assert stats.ht_tables_adopted == (tasks - 1) * len(query.joins)


@pytest.mark.parametrize("connected", [True, False],
                         ids=["connect", "three-nodes"])
def test_thirteen_cold_queries_match_reference(data, connected):
    session = (connect("clydesdale", data=data, aggstore=False)
               if connected else _cached(_engine(data)))
    reference = connect("reference", data=data)
    for name, query in ssb_queries().items():
        session.invalidate_cache()
        assert (session.execute(query).rows
                == reference.execute(query).rows), name


def test_build_racing_a_reload_is_not_stored_as_fresh(monkeypatch):
    """A table built from the old engine's copies while the catalog
    reloads is refused by the cache, so the next run rebuilds from the
    new data instead of probing stale tables."""
    old = SSBGenerator(scale_factor=0.002, seed=5).generate()
    new = SSBGenerator(scale_factor=0.002, seed=11).generate()
    session = connect("clydesdale", data=old, aggstore=False)
    raced_engine = session.engine
    query = ssb_queries()["Q2.1"]
    original = StarJoinMapper._build_one_table
    reloaded: list[bool] = []

    def build_then_reload(self, *args, **kwargs):
        built = original(self, *args, **kwargs)
        if not reloaded:
            reloaded.append(True)
            session.reload_catalog(new)
        return built

    monkeypatch.setattr(StarJoinMapper, "_build_one_table",
                        build_then_reload)
    session.execute(query)
    raced = raced_engine.last_stats.ht_cache_misses
    monkeypatch.undo()
    assert reloaded
    # Every table that query published came after the reload.
    assert session.cache_stats().stale_drops == raced
    assert session.cache_stats().entries == 0
    result = session.execute(query)
    assert session.stats().execution.ht_builds >= 1
    assert result.rows == ReferenceEngine.from_ssb(new).execute(query).rows


def test_reload_between_engine_read_and_planning_is_refused(monkeypatch):
    """A query that read the engine just before ``reload_catalog``
    swapped it publishes its tables under the generation it started
    with, so the cache refuses them even though the whole run, planning
    included, came after the reload."""
    old = SSBGenerator(scale_factor=0.002, seed=5).generate()
    new = SSBGenerator(scale_factor=0.002, seed=11).generate()
    session = connect("clydesdale", data=old, aggstore=False)
    raced_engine = session.engine
    query = ssb_queries()["Q2.1"]
    original = ClydesdaleEngine._plan_passes
    reloaded: list[bool] = []

    def reload_then_plan(self, *args, **kwargs):
        if not reloaded:
            reloaded.append(True)
            session.reload_catalog(new)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ClydesdaleEngine, "_plan_passes", reload_then_plan)
    session.execute(query)
    monkeypatch.undo()
    assert reloaded and session.engine is not raced_engine
    raced = raced_engine.last_stats.ht_cache_misses
    assert raced >= 1
    assert session.cache_stats().stale_drops == raced
    assert session.cache_stats().entries == 0
    result = session.execute(query)
    assert session.stats().execution.ht_builds >= 1
    assert result.rows == ReferenceEngine.from_ssb(new).execute(query).rows
