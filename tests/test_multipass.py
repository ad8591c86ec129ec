"""Tests for the multi-pass join fallback (paper 5.1 "Discussion"):
joining one subset of dimensions per pass when hash tables exceed a
node's memory."""

import pytest

from repro.common.errors import PlanningError
from repro.core.engine import ClydesdaleEngine
from repro.core.multipass import estimate_ht_bytes, plan_passes
from repro.serve.cache import HashTableCache
from repro.serve.session import Session
from repro.sim.costs import DEFAULT_COST_MODEL
from repro.sim.hardware import tiny_cluster
from repro.ssb.queries import QUERY_NAMES, ssb_queries


@pytest.fixture(scope="module")
def engine(request):
    from repro.ssb.datagen import SSBGenerator
    data = SSBGenerator(scale_factor=0.002, seed=42).generate()
    return ClydesdaleEngine.with_ssb_data(data=data, num_nodes=4,
                                          row_group_size=2_000)


class TestPassPlanning:
    def test_everything_fits_one_pass(self, engine, queries):
        passes = plan_passes(queries["Q4.1"], engine.catalog,
                             budget_bytes=1e12, bytes_per_entry=400)
        assert len(passes) == 1
        assert passes[0] == [j.dimension for j in queries["Q4.1"].joins]

    def test_tight_budget_splits_passes(self, engine, queries):
        query = queries["Q4.1"]
        sizes = estimate_ht_bytes(query, engine.catalog, 400.0)
        budget = max(sizes.values()) * 1.05
        passes = plan_passes(query, engine.catalog, budget, 400.0)
        assert len(passes) >= 2
        # Every join covered exactly once, order preserved.
        flat = [d for group in passes for d in group]
        assert flat == [j.dimension for j in query.joins]

    def test_oversized_single_dimension_own_pass(self, engine, queries):
        query = queries["Q3.1"]
        passes = plan_passes(query, engine.catalog, budget_bytes=1.0,
                             bytes_per_entry=400.0)
        assert all(len(group) == 1 for group in passes)

    def test_invalid_budget(self, engine, queries):
        with pytest.raises(PlanningError):
            plan_passes(queries["Q1.1"], engine.catalog, 0, 400.0)


class TestMultipassCorrectness:
    @pytest.mark.parametrize("name", ["Q2.1", "Q3.1", "Q4.1", "Q4.3"])
    def test_two_pass_matches_single_job(self, engine, reference,
                                         queries, name):
        query = queries[name]
        dims = [j.dimension for j in query.joins]
        passes = [dims[:1], dims[1:]]
        got = engine.execute_multipass(query, passes)
        expected = reference.execute(query)
        assert got.columns == expected.columns
        assert got.rows == expected.rows

    def test_one_dim_per_pass_matches(self, engine, reference, queries):
        query = queries["Q4.2"]
        passes = [[j.dimension] for j in query.joins]
        got = engine.execute_multipass(query, passes)
        assert got.rows == reference.execute(query).rows

    def test_single_pass_degenerate(self, engine, reference, queries):
        query = queries["Q2.2"]
        passes = [[j.dimension for j in query.joins]]
        got = engine.execute_multipass(query, passes)
        assert got.rows == reference.execute(query).rows

    def test_fact_predicate_applied_once(self, engine, reference,
                                         queries):
        """Flight-1 queries filter the fact table; the predicate must
        hold across passes without double-filtering artifacts."""
        query = queries["Q1.1"]
        got = engine.execute_multipass(query, [["date"]])
        assert got.rows == reference.execute(query).rows

    def test_breakdown_reports_passes(self, engine, queries):
        query = queries["Q3.1"]
        dims = [j.dimension for j in query.joins]
        got = engine.execute_multipass(query, [dims[:2], dims[2:]])
        assert "pass1" in got.breakdown
        assert "final" in got.breakdown
        assert got.simulated_seconds > 0

    def test_bad_pass_cover_rejected(self, engine, queries):
        query = queries["Q3.1"]
        with pytest.raises(PlanningError):
            engine.execute_multipass(query, [["customer"]])


def _starved_engine(data):
    # 360 kB/entry puts the date table at ~878 MB worst case — above
    # the 870 MB heap budget, so it gets its own pass, while the actual
    # (year-filtered) table at ~752 MB still executes within budget.
    return ClydesdaleEngine.with_ssb_data(
        data=data, num_nodes=4,
        cluster=tiny_cluster(workers=4, map_slots=2, memory_gb=1),
        cost_model=DEFAULT_COST_MODEL.with_overrides(
            clydesdale_hash_bytes_per_entry=360_000.0))


class TestAutomaticFallback:
    def test_engine_falls_back_when_memory_tight(self, queries,
                                                 ssb_data, reference):
        """A starved cluster triggers the multi-pass path inside plain
        ``execute`` and the answer is still right."""
        query = queries["Q3.1"]
        got = Session(_starved_engine(ssb_data)).execute(query)
        assert got.rows == reference.execute(query).rows
        assert any(k.startswith("pass") for k in got.breakdown)

    def test_no_fallback_when_memory_ample(self, engine, queries):
        got = Session(engine).execute(queries["Q3.1"])
        assert not any(k.startswith("pass") for k in got.breakdown)

    def test_fallback_is_traced_cached_and_counted(self, queries,
                                                   ssb_data, reference):
        """The fallback is the main path run more than once: it reports
        execution stats, probes the session's hash-table cache and
        leaves one ``job`` span per pass."""
        query = queries["Q3.1"]
        session = Session(_starved_engine(ssb_data),
                          cache=HashTableCache(1 << 42), trace=True)
        cold = session.execute(query)
        assert len([k for k in cold.breakdown
                    if k.startswith("pass") or k == "final"]) == 2
        assert session.stats().execution.ht_builds > 0
        warm = session.execute(query)
        assert warm.rows == cold.rows == reference.execute(query).rows
        execution = session.stats().execution
        assert execution is not None and execution.rows_probed > 0
        assert session.last_provenance.scanned_rows > 0
        assert execution.ht_builds == 0
        assert session.cache_stats().hits >= 3
        tree = session.last_trace
        (root,) = tree.find("query:Q3.1")
        jobs = [span for span in tree.find("job")
                if span.parent_id == root.span_id]
        assert len(jobs) == 2
        assert tree.find("build") and tree.find("probe")
        assert execution.phases["probe"] > 0

    def test_fallback_pays_for_a_smaller_slot_share(self, queries,
                                                    ssb_data):
        query = queries["Q3.1"]
        full = Session(_starved_engine(ssb_data)).execute(query)
        half = Session(_starved_engine(ssb_data),
                       slot_share=0.5).execute(query)
        assert any(k.startswith("pass") for k in half.breakdown)
        assert half.simulated_seconds > full.simulated_seconds
