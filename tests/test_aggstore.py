"""The materialized aggregate store and the typed session API.

Covers the subsumption matcher (exact / rollup / miss on canonical
families), the byte-identity decline rules (ordering ties, non-integer
values, int64 overflow), admission and benefit eviction under a byte
budget, generation-stamped invalidation (including the reload race),
the AVG rewrite, provenance plumbing, and the structured
``Session.stats()`` / ``Session.explain()`` surface — plus the
hypothesis property that a rollup is byte-identical to executing the
coarser query from scratch.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.common.config import Configuration
from repro.common.errors import QueryError, SanitizerError, ValidationError
from repro.common.keys import (
    KEY_CACHE_ENABLED,
    KEY_SERVE_AGGSTORE_BYTES,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_WORKERS,
)
from repro.core.expressions import And, Col, Comparison, TruePredicate
from repro.core.query import Aggregate, OrderKey, StarQuery
from repro.core.result import QueryResult
from repro.serve.aggstore import (
    AggStore,
    Provenance,
    agg_identity,
    family_key,
)
from repro.serve.session import ExplainReport, SessionStats
from repro.ssb.queries import ssb_queries
from tests.store_contract import (
    AGG_STORE,
    StoreBudgetContract,
    StoreStampContract,
)
from tests.test_property_random_queries import star_queries

# --------------------------------------------------------------------- #
# Unit helpers: synthetic queries and pre-aggregated results.
# --------------------------------------------------------------------- #


def _query(name="q", group_by=("g",), aggs=None, order_by=(),
           limit=None, predicate=None):
    return StarQuery(
        name=name, fact_table="lineorder", joins=[],
        fact_predicate=predicate if predicate is not None
        else TruePredicate(),
        aggregates=list(aggs) if aggs is not None
        else [Aggregate("sum", Col("lo_revenue"), alias="rev")],
        group_by=list(group_by), order_by=list(order_by), limit=limit)


def _result(query, rows, seconds=0.01):
    return QueryResult(
        query_name=query.name,
        columns=list(query.group_by) + [a.alias
                                        for a in query.aggregates],
        rows=[tuple(r) for r in rows],
        simulated_seconds=seconds, breakdown={})


FINE_AGGS = [Aggregate("sum", Col("lo_revenue"), alias="rev"),
             Aggregate("count", Col("lo_revenue"), alias="n"),
             Aggregate("min", Col("lo_discount"), alias="lo"),
             Aggregate("max", Col("lo_discount"), alias="hi")]

#: (year, brand) -> sum, count, min, max — the stored finer entry.
FINE_ROWS = [
    (1992, "A", 10, 2, 3, 7),
    (1992, "B", 20, 1, 5, 5),
    (1993, "A", 30, 4, 1, 9),
    (1993, "B", 40, 3, 2, 8),
]


def _fine_query():
    return _query(name="fine", group_by=("year", "brand"),
                  aggs=FINE_AGGS)


def _warm_store(budget=1 << 20):
    store = AggStore(budget)
    assert store.admit(_fine_query(), _result(_fine_query(), FINE_ROWS),
                       cost=1.0)
    return store


# --------------------------------------------------------------------- #
# Canonical keys: families, aggregate identities.
# --------------------------------------------------------------------- #


class TestCanonicalKeys:
    def test_family_ignores_shape_of_the_answer(self, queries):
        base = queries["Q2.1"]
        variants = [
            base.with_name("renamed"),
            base.with_limit(3),
            base.without_order_by().with_group_by(["d_year"])
                .with_order_by([OrderKey("d_year")]),
            base.with_aggregates(
                [Aggregate("count", Col("lo_revenue"), alias="n")]),
        ]
        for variant in variants:
            assert family_key(variant) == family_key(base)

    def test_family_distinguishes_predicates(self, queries):
        base = queries["Q2.1"]
        changed = base.with_fact_predicate(
            Comparison("lo_discount", "<", 2))
        assert family_key(changed) != family_key(base)

    def test_and_normalization(self):
        a = Comparison("lo_discount", "<", 2)
        b = Comparison("lo_quantity", "<", 25)
        flipped = _query(predicate=And([b, a]))
        padded = _query(predicate=And([a, TruePredicate(), b]))
        nested = _query(predicate=And([And([a]), b]))
        base = _query(predicate=And([a, b]))
        assert (family_key(flipped) == family_key(padded)
                == family_key(nested) == family_key(base))

    def test_agg_identity(self):
        assert (agg_identity(Aggregate("count", Col("x"), alias="a"))
                == agg_identity(Aggregate("count", Col("y"), alias="b")))
        assert (agg_identity(Aggregate("sum", Col("x"), alias="a"))
                == agg_identity(Aggregate("sum", Col("x"), alias="z")))
        assert (agg_identity(Aggregate("sum", Col("x"), alias="a"))
                != agg_identity(Aggregate("sum", Col("y"), alias="a")))
        assert (agg_identity(Aggregate("sum", Col("x"), alias="a"))
                != agg_identity(Aggregate("min", Col("x"), alias="a")))


# --------------------------------------------------------------------- #
# Exact serving: projection, alias mapping, ordering replay.
# --------------------------------------------------------------------- #


class TestExactServe:
    def test_replay_same_order_semantics(self):
        store = _warm_store()
        decision = store.fetch(_fine_query().with_name("again"))
        assert decision.kind == "exact"
        assert decision.result.rows == FINE_ROWS
        assert decision.candidates == (("year", "brand"),)
        assert store.stats().hits_exact == 1

    def test_alias_is_presentation_only(self):
        store = _warm_store()
        renamed = _query(
            name="renamed", group_by=("year", "brand"),
            aggs=[Aggregate("count", Col("lo_revenue"), alias="cnt"),
                  Aggregate("sum", Col("lo_revenue"), alias="total")])
        decision = store.fetch(renamed)
        assert decision.kind == "exact"
        assert decision.result.columns == ["year", "brand", "cnt",
                                           "total"]
        assert decision.result.rows == [
            (y, b, n, s) for (y, b, s, n, _, _) in FINE_ROWS]

    def test_limit_slices_the_replay(self):
        store = _warm_store()
        decision = store.fetch(_fine_query().with_limit(2))
        assert decision.kind == "exact"
        assert decision.result.rows == FINE_ROWS[:2]

    def test_tie_free_reorder_serves(self):
        store = _warm_store()
        reordered = _fine_query().with_order_by(
            [OrderKey("rev", descending=True)])
        decision = store.fetch(reordered)
        assert decision.kind == "exact"
        assert decision.result.rows == sorted(
            FINE_ROWS, key=lambda r: -r[2])

    def test_order_by_ties_decline(self):
        store = AggStore(1 << 20)
        fine = _fine_query()
        rows = [(1992, "A", 10, 2, 3, 7), (1992, "B", 10, 1, 5, 5)]
        store.admit(fine, _result(fine, rows))
        tied = fine.with_order_by([OrderKey("rev")])
        decision = store.fetch(tied)
        assert decision.kind == "miss"
        assert "tie" in decision.declined
        assert store.stats().declined == 1

    def test_swapped_group_by_is_not_replayed(self):
        """Without an ORDER BY the engine's row order follows the
        group-by column order, so a swapped one is not a replay: it
        declines like any unordered re-sort, and serves when an ORDER BY
        is tie-free."""
        store = _warm_store()
        swapped = _fine_query().with_group_by(["brand", "year"])
        decision = store.fetch(swapped)
        assert decision.kind == "miss"
        assert "engine-defined" in decision.declined
        ordered = swapped.with_order_by([OrderKey("rev")])
        decision = store.fetch(ordered)
        assert decision.kind == "exact"
        assert decision.result.rows == sorted(
            [(b, y, *rest) for (y, b, *rest) in FINE_ROWS],
            key=lambda r: r[2])

    def test_missing_aggregate_is_a_miss(self):
        store = _warm_store()
        other = _query(
            name="other", group_by=("year", "brand"),
            aggs=[Aggregate("sum", Col("lo_quantity"), alias="q")])
        decision = store.fetch(other)
        assert decision.kind == "miss"
        assert decision.declined is None

    def test_peek_is_read_only(self):
        store = _warm_store()
        before = store.stats()
        assert store.peek(_fine_query()).kind == "exact"
        assert store.peek(_fine_query().with_group_by([])).kind \
            == "rollup"
        assert store.peek(_query(name="elsewhere", predicate=And(
            [Comparison("lo_discount", "<", 2)]))).kind == "miss"
        after = store.stats()
        assert (after.hits_exact, after.hits_rollup, after.misses) \
            == (before.hits_exact, before.hits_rollup, before.misses)


# --------------------------------------------------------------------- #
# Rollup serving: kernels, decline rules.
# --------------------------------------------------------------------- #


class TestRollupServe:
    def test_rollup_all_functions(self):
        store = _warm_store()
        coarse = _query(name="coarse", group_by=("year",),
                        aggs=FINE_AGGS,
                        order_by=[OrderKey("year")])
        decision = store.fetch(coarse)
        assert decision.kind == "rollup"
        # SUM of sums, SUM of counts, MIN of mins, MAX of maxes.
        assert decision.result.rows == [(1992, 30, 3, 3, 7),
                                        (1993, 70, 7, 1, 9)]
        assert decision.rolled_rows == len(FINE_ROWS)
        assert store.stats().hits_rollup == 1
        assert store.stats().rolled_rows == len(FINE_ROWS)

    def test_grand_total_single_row_needs_no_order(self):
        store = _warm_store()
        total = _query(name="total", group_by=(), aggs=FINE_AGGS)
        decision = store.fetch(total)
        assert decision.kind == "rollup"
        assert decision.result.rows == [(100, 10, 1, 9)]

    def test_multi_row_rollup_without_order_declines(self):
        store = _warm_store()
        unordered = _query(name="unordered", group_by=("year",),
                           aggs=FINE_AGGS)
        decision = store.fetch(unordered)
        assert decision.kind == "miss"
        assert "engine-defined" in decision.declined

    def test_any_order_bypasses_ordering_rules(self):
        store = _warm_store()
        unordered = _query(name="unordered", group_by=("year",),
                           aggs=FINE_AGGS)
        decision = store.fetch(unordered, any_order=True)
        assert decision.kind == "rollup"
        assert sorted(decision.result.rows) == [(1992, 30, 3, 3, 7),
                                                (1993, 70, 7, 1, 9)]

    def test_float_values_decline(self):
        store = AggStore(1 << 20)
        fine = _fine_query()
        rows = [(1992, "A", 10.5, 2, 3, 7), (1993, "B", 40, 3, 2, 8)]
        store.admit(fine, _result(fine, rows))
        coarse = _query(name="coarse", group_by=("year",),
                        aggs=FINE_AGGS, order_by=[OrderKey("year")])
        decision = store.fetch(coarse)
        assert decision.kind == "miss"
        assert "non-integer" in decision.declined

    def test_bool_values_decline(self):
        # bool is an int subclass but ``type(v) is int`` must reject it:
        # True + True re-aggregates as 2, not as the engine's answer.
        store = AggStore(1 << 20)
        fine = _fine_query()
        rows = [(1992, "A", True, 2, 3, 7)]
        store.admit(fine, _result(fine, rows))
        coarse = _query(name="coarse", group_by=("year",),
                        aggs=FINE_AGGS, order_by=[OrderKey("year")])
        assert store.fetch(coarse).kind == "miss"

    def test_int64_overflow_declines(self):
        store = AggStore(1 << 20)
        fine = _fine_query()
        rows = [(1992, "A", 2 ** 62, 2, 3, 7),
                (1993, "B", 2 ** 62, 3, 2, 8)]
        store.admit(fine, _result(fine, rows))
        coarse = _query(name="coarse", group_by=("year",),
                        aggs=FINE_AGGS, order_by=[OrderKey("year")])
        decision = store.fetch(coarse)
        assert decision.kind == "miss"
        assert "int64" in decision.declined

    def test_finest_subsuming_entry_wins(self):
        # Two subsuming entries: the rollup reads the one with fewer
        # materialized rows.
        store = _warm_store()
        mid = _query(name="mid", group_by=("year",), aggs=FINE_AGGS)
        store.admit(mid, _result(mid, [(1992, 30, 3, 3, 7),
                                       (1993, 70, 7, 1, 9)]))
        total = _query(name="total", group_by=(), aggs=FINE_AGGS)
        decision = store.fetch(total)
        assert decision.kind == "rollup"
        assert decision.rolled_rows == 2      # the 2-row entry, not 4
        assert decision.result.rows == [(100, 10, 1, 9)]


# --------------------------------------------------------------------- #
# Admission, eviction, invalidation.
# --------------------------------------------------------------------- #


class TestAdmission(StoreBudgetContract, StoreStampContract):
    config = AGG_STORE

    # What only the aggregate store adds to the store contract.

    def test_limit_refused(self):
        store = AggStore(1 << 20)
        fine = _fine_query().with_limit(2)
        assert not store.admit(fine, _result(fine, FINE_ROWS[:2]))
        assert len(store) == 0

    def test_avg_refused(self):
        store = AggStore(1 << 20)
        fine = _query(name="avg", group_by=("year",), aggs=[
            Aggregate("avg", Col("lo_revenue"), alias="a")])
        assert not store.admit(fine, _result(fine, [(1992, 5)]))

    def test_readmission_replaces(self):
        # Same group set and aggregate identities (aliases aside): the
        # newer materialization takes the older one's place.
        store = _warm_store()
        fine = _fine_query()
        assert store.admit(fine, _result(fine, FINE_ROWS[:1]))
        assert len(store) == 1
        assert store.fetch(fine).result.rows == FINE_ROWS[:1]

    def test_eviction_prefers_low_benefit(self):
        # Three equal-sized entries in distinct families, a budget that
        # holds two: the never-hit entry goes, the hot one survives.
        hot = _fine_query()
        cold = _query(name="cold", group_by=("year", "brand"),
                      aggs=FINE_AGGS,
                      predicate=Comparison("lo_discount", "<", 2))
        third = _query(name="third", group_by=("year", "brand"),
                       aggs=FINE_AGGS,
                       predicate=Comparison("lo_discount", "<", 3))
        sizer = AggStore(1 << 20)
        sizer.admit(hot, _result(hot, FINE_ROWS))
        size = sizer.stats().bytes_cached
        store = AggStore(int(size * 2.5))
        store.admit(hot, _result(hot, FINE_ROWS), cost=1.0)
        for _ in range(5):
            assert store.fetch(hot).kind == "exact"
        store.admit(cold, _result(cold, FINE_ROWS), cost=1.0)
        store.admit(third, _result(third, FINE_ROWS), cost=1.0)
        assert store.stats().evictions >= 1
        assert store.fetch(hot).kind == "exact"     # survivor
        assert store.fetch(cold).kind == "miss"     # the victim


# --------------------------------------------------------------------- #
# Session integration: provenance, typed stats/explain, AVG, coupling.
# --------------------------------------------------------------------- #


@pytest.fixture()
def session(ssb_data):
    return connect(backend="clydesdale", data=ssb_data)


class TestSessionIntegration:
    def test_swapped_group_by_answers_as_executed(self, session, ssb_data):
        query = _query(group_by=["lo_orderpriority", "lo_shipmode"])
        swapped = query.with_group_by(["lo_shipmode", "lo_orderpriority"])
        session.execute(query)
        cold = connect(backend="clydesdale", data=ssb_data,
                       aggstore=False)
        assert session.execute(swapped).rows == cold.execute(swapped).rows
        assert session.last_provenance.source == "executed"

    def test_provenance_transitions(self, session, queries, reference):
        query = queries["Q2.1"]
        cold = session.execute(query)
        assert session.last_provenance.source == "executed"
        assert session.last_provenance.scanned_rows > 0
        warm = session.execute(query)
        prov = session.last_provenance
        assert prov.source == "agg_exact"
        assert prov.scanned_rows == 0
        assert ("d_year", "p_brand1") in prov.candidates
        coarse = (query.with_name("by-year").without_order_by()
                  .with_group_by(["d_year"])
                  .with_order_by([OrderKey("d_year")]))
        rolled = session.execute(coarse)
        prov = session.last_provenance
        assert prov.source == "agg_rollup"
        assert prov.scanned_rows == 0 and prov.rolled_rows > 0
        oracle = reference.execute(coarse)
        assert warm.rows == cold.rows
        assert rolled.rows == oracle.rows
        assert rolled.columns == oracle.columns

    def test_stats_snapshot_is_typed(self, session, queries):
        session.execute(queries["Q2.1"])
        snapshot = session.stats()
        assert isinstance(snapshot, SessionStats)
        assert snapshot.backend == "clydesdale"
        assert isinstance(snapshot.provenance, Provenance)
        assert snapshot.aggstore is not None
        assert snapshot.aggstore.puts == 1
        assert snapshot.cache is not None
        assert snapshot.execution is not None

    def test_explain_reports_the_store_decision(self, session, queries):
        query = queries["Q2.1"]
        report = session.explain(query)
        assert isinstance(report, ExplainReport)
        assert report.aggstore == "miss"
        session.execute(query)
        report = session.explain(query)
        assert report.aggstore == "exact"
        assert ("d_year", "p_brand1") in report.candidates
        coarse = (query.with_name("by-year").without_order_by()
                  .with_group_by(["d_year"]))
        assert session.explain(coarse).aggstore == "rollup"
        assert str(report) == report.plan
        assert "date" in report

    def test_avg_rewrite_byte_identical(self, session, queries,
                                        ssb_data):
        base = queries["Q2.1"]
        avg = (base.with_name("avg").without_order_by()
               .with_aggregates([Aggregate("avg", Col("lo_revenue"),
                                           alias="avg_rev")])
               .with_order_by([OrderKey("d_year"),
                               OrderKey("p_brand1")]))
        cold = session.execute(avg)
        warm = session.execute(avg)
        assert session.last_provenance.source == "agg_exact"
        # Raw engines refuse unrewritten AVG; the rewrite lives in the
        # Session, so the oracle must be a reference-backed Session.
        oracle = connect(backend="reference",
                         data=ssb_data).execute(avg)
        assert cold.rows == warm.rows == oracle.rows
        assert cold.columns == oracle.columns

    def test_leaked_avg_fails_loudly(self):
        with pytest.raises(QueryError, match="avg"):
            Aggregate("avg", Col("x"), alias="a").initial()

    def test_invalidate_cache_clears_the_store(self, session, queries):
        session.execute(queries["Q1.2"])
        session.execute(queries["Q1.2"])
        assert session.last_provenance.source == "agg_exact"
        session.invalidate_cache()
        session.execute(queries["Q1.2"])
        assert session.last_provenance.source == "executed"
        assert session.stats().aggstore.invalidations == 1

    def test_rollup_never_serves_across_reload(self, session, queries):
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator
        fine = queries["Q2.1"]
        coarse = (fine.with_name("by-year").without_order_by()
                  .with_group_by(["d_year"])
                  .with_order_by([OrderKey("d_year")]))
        session.execute(fine)                 # materialize on catalog 1
        data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
        session.reload_catalog(data2)
        rolled = session.execute(coarse)
        assert session.last_provenance.source == "executed"
        oracle = ReferenceEngine.from_ssb(data2).execute(coarse)
        assert rolled.rows == oracle.rows

    def test_slot_share_bypasses_the_store(self, session, queries,
                                           reference):
        query = queries["Q1.3"]
        session.execute(query)
        shared = session.execute_for(query, slot_share=0.5)
        # The borrowed fair-share session carries no store: timing must
        # reflect real execution, and provenance says so.
        assert session.last_provenance.source == "executed"
        assert shared.rows == reference.execute(query).rows

    def test_connect_coupling(self, ssb_data):
        assert connect(
            backend="clydesdale", data=ssb_data,
            conf=Configuration({KEY_CACHE_ENABLED: False})).aggstore is None
        assert connect(backend="reference", data=ssb_data) \
            .aggstore is None
        assert connect(backend="clydesdale", data=ssb_data,
                       aggstore=False).aggstore is None
        sized = connect(backend="clydesdale", data=ssb_data,
                        conf=Configuration({KEY_SERVE_AGGSTORE_BYTES: 4096}))
        assert sized.aggstore.budget_bytes == 4096

    def test_trace_carries_the_aggstore_span(self, session, queries):
        query = queries["Q1.1"]
        session.execute(query, trace=True)
        session.execute(query, trace=True)
        spans = session.last_trace.find("aggstore")
        assert spans and spans[0].attrs["source"] == "agg_exact"


# --------------------------------------------------------------------- #
# Property: a rollup is byte-identical to executing the coarser query.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def agg_and_oracle(ssb_data):
    """One store-backed session (warms across hypothesis examples) and
    the reference engine as the byte-identity oracle."""
    return (connect(backend="clydesdale", data=ssb_data),
            connect(backend="reference", data=ssb_data))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rollup_byte_identical_to_reference(data, agg_and_oracle):
    session, oracle = agg_and_oracle
    fine = data.draw(star_queries())
    assume(fine.group_by)
    keep = data.draw(st.lists(st.sampled_from(fine.group_by),
                              unique=True,
                              max_size=len(fine.group_by) - 1))
    # Ordering by every remaining group column is a total order (group
    # rows are unique on the full key), so byte-identity is decidable.
    coarse = (fine.with_name("coarse").without_order_by()
              .without_limit().with_group_by(keep)
              .with_order_by([OrderKey(c) for c in keep]))
    session.execute(fine)       # materializes the finer answer
    got = session.execute(coarse)
    expected = oracle.execute(coarse)
    assert got.columns == expected.columns
    assert got.rows == expected.rows
    # The coarser request must be store-served (or an explicit,
    # reasoned decline) — never a silent matcher miss.
    prov = session.last_provenance
    assert prov.source in ("agg_exact", "agg_rollup") \
        or prov.declined is not None


@pytest.mark.parametrize("name", sorted(ssb_queries()))
def test_ssb_rollups_byte_identical(name, agg_and_oracle):
    session, oracle = agg_and_oracle
    fine = ssb_queries()[name]
    session.execute(fine)
    for width in range(len(fine.group_by)):
        keep = fine.group_by[:width]
        coarse = (fine.with_name(f"{name}-w{width}").without_order_by()
                  .without_limit().with_group_by(list(keep))
                  .with_order_by([OrderKey(c) for c in keep]))
        got = session.execute(coarse)
        expected = oracle.execute(coarse)
        assert got.rows == expected.rows, coarse.name
        assert got.columns == expected.columns
        prov = session.last_provenance
        assert prov.source in ("agg_exact", "agg_rollup") \
            or prov.declined is not None


# --------------------------------------------------------------------- #
# Every route answers through one reuse protocol.
# --------------------------------------------------------------------- #


def _fine_then_coarse(queries):
    """Six families, each a fine query then a coarser GROUP BY of it:
    three AVG forms and three ``LIMIT 2`` forms, every ordering total.
    The coarse form has another routing shape than the fine one."""
    script = []
    for name in ("Q2.1", "Q3.1", "Q4.1", "Q2.2", "Q3.2", "Q4.2"):
        base = queries[name].without_order_by()
        if name.endswith(".1"):
            base = base.with_aggregates(
                [Aggregate("avg", Col("lo_revenue"), alias="avg_rev")])
        else:
            base = base.with_limit(2)
        for label, keep in (("fine", base.group_by),
                            ("coarse", base.group_by[:1])):
            script.append(
                base.with_name(f"{name}-{label}").with_group_by(keep)
                .with_order_by([OrderKey(c) for c in keep]))
    return script


@pytest.mark.parametrize("workers", [None, 2],
                         ids=["in-process", "workers=2"])
def test_every_route_reuses_alike(workers, ssb_data, queries):
    oracle = connect("reference", data=ssb_data)
    session = connect("clydesdale", data=ssb_data, workers=workers)
    try:
        sources = []
        for query in _fine_then_coarse(queries):
            if query.name.endswith("-coarse"):
                assert session.explain(query).aggstore == "rollup"
            assert session.execute(query).rows == \
                oracle.execute(query).rows, query.name
            sources.append(session.stats().provenance.source)
        assert [s if s == "executed" else "reuse" for s in sources] == \
            ["executed", "reuse"] * 6, sources
        assert set(sources) <= {"executed", "agg_exact", "agg_rollup"}
    finally:
        if workers:
            session.frontend.close()


# --------------------------------------------------------------------- #
# Scale-out: the frontend's store, admission races, reload fences.
# --------------------------------------------------------------------- #


class TestFrontendAggStore:
    def test_frontend_serves_subsumed_repeats(self, ssb_data, queries,
                                              reference):
        from repro.serve.frontend import Frontend
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 2,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("dash")
            fine = queries["Q2.1"]
            cold = handle.execute(fine)
            assert handle.last_summary["source"] == "worker"
            warm = handle.execute(fine)
            assert handle.last_summary["source"] == "agg_exact"
            coarse = (fine.with_name("by-year").without_order_by()
                      .with_group_by(["d_year"])
                      .with_order_by([OrderKey("d_year")]))
            rolled = handle.execute(coarse)
            assert handle.last_summary["source"] == "agg_rollup"
            assert warm.rows == cold.rows
            assert rolled.rows == reference.execute(coarse).rows
            snapshot = handle.stats()
            assert isinstance(snapshot, SessionStats)
            assert snapshot.provenance.source == "agg_rollup"
            # The summary ships provenance as a plain dict; stats()
            # rebuilds the typed form (tuples, not lists) from it.
            shipped = handle.last_summary["provenance"]
            assert isinstance(shipped, dict)
            assert snapshot.provenance == Provenance.from_dict(shipped)
            assert snapshot.provenance.to_dict() == shipped
            assert snapshot.provenance.candidates == (
                tuple(fine.group_by),)
            assert snapshot.aggstore.hits_rollup == 1
            report = handle.explain(fine)
            assert isinstance(report, ExplainReport)
            assert report.aggstore == "exact"
            assert report.routing is not None
        finally:
            front.close()

    def test_truncated_results_never_admitted(self, ssb_data, queries,
                                              reference):
        from repro.serve.frontend import Frontend
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("trunc")
            # Q3.1 yields dozens of groups and limit=2 truncates them:
            # the worker runs the limit-free query, so what the
            # frontend materializes is the complete answer, and a wider
            # LIMIT is served from it — never from two rows.
            query = queries["Q3.1"]
            top2 = handle.execute(query.with_limit(2))
            assert top2.rows == reference.execute(query.with_limit(2)).rows
            assert front.aggstore_stats().puts == 1
            top5 = handle.execute(query.with_limit(5))
            assert handle.last_summary["source"] == "agg_exact"
            assert top5.rows == reference.execute(query.with_limit(5)).rows
            assert len(top5.rows) == 5
        finally:
            front.close()

    def test_reload_invalidates_the_frontend_store(self, ssb_data,
                                                   queries):
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator
        from repro.serve.frontend import Frontend
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 2,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("reload")
            fine = queries["Q2.1"]
            handle.execute(fine)
            data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
            front.reload_catalog(data2)
            assert front.aggstore_stats().invalidations == 1
            coarse = (fine.with_name("by-year").without_order_by()
                      .with_group_by(["d_year"])
                      .with_order_by([OrderKey("d_year")]))
            rolled = handle.execute(coarse)
            assert handle.last_summary["source"] == "worker"
            oracle = ReferenceEngine.from_ssb(data2).execute(coarse)
            assert rolled.rows == oracle.rows
        finally:
            front.close()

    def test_in_flight_result_never_admitted_across_reload(
            self, ssb_data, queries):
        # Mirrors the result-cache reload race: a query still running
        # on the old catalog when reload_catalog commits was computed
        # under a superseded generation — the store must refuse it.
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator
        from repro.serve.frontend import Frontend
        front = Frontend(backend="clydesdale", data=ssb_data,
                         conf=Configuration({
                             KEY_SERVE_WORKERS: 1,
                             KEY_SERVE_RESULT_CACHE: False}))
        try:
            handle = front.session("inflight")
            query = queries["Q2.1"]
            data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
            front._workers[0].post(("poison", "stall:0.5"))
            failures: list[BaseException] = []

            def slow():
                try:
                    handle.execute(query)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)       # let the execute reach the worker
            front.reload_catalog(data2)
            thread.join()
            assert not failures
            assert front.aggstore_stats().stale_drops == 1
            assert front.aggstore_stats().puts == 0
            after = front.session("check").execute(query)
            oracle = ReferenceEngine.from_ssb(data2).execute(query)
            assert after.rows == oracle.rows
        finally:
            front.close()
