"""Tests for the Clydesdale engine: correctness, stats, feature toggles,
JVM-reuse behaviour, OOM enforcement."""

import pytest

from repro.common.errors import JobFailedError
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import Col, Comparison
from repro.core.planner import ClydesdaleFeatures
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.serve.session import Session
from repro.sim.costs import DEFAULT_COST_MODEL
from repro.storage.tablemeta import TableMeta
from repro.sim.hardware import tiny_cluster


class TestCorrectness:
    def test_q21_matches_reference(self, clydesdale, reference, queries):
        expected = reference.execute(queries["Q2.1"])
        got = clydesdale.execute(queries["Q2.1"])
        assert got.columns == ["d_year", "p_brand1", "revenue"]
        assert got.rows == expected.rows

    def test_flight1_no_groupby(self, clydesdale, reference, queries):
        got = clydesdale.execute(queries["Q1.1"])
        expected = reference.execute(queries["Q1.1"])
        assert got.columns == ["revenue"]
        assert got.rows == expected.rows
        assert len(got.rows) == 1

    def test_order_by_applied(self, clydesdale, queries):
        result = clydesdale.execute(queries["Q3.1"])
        years = result.column("d_year")
        assert years == sorted(years)
        revenue = result.column("revenue")
        for i in range(1, len(result.rows)):
            if years[i] == years[i - 1]:
                assert revenue[i] <= revenue[i - 1]

    def test_custom_query_with_fact_group(self, clydesdale, reference):
        query = StarQuery(
            name="by-shipmode", fact_table="lineorder",
            joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                                 Comparison("d_year", "=", 1994))],
            aggregates=[Aggregate("sum", Col("lo_quantity"), alias="qty"),
                        Aggregate("count", Col("lo_quantity"),
                                  alias="lines")],
            group_by=["lo_shipmode"],
            order_by=[OrderKey("lo_shipmode")])
        assert clydesdale.execute(query).rows == \
            reference.execute(query).rows

    def test_limit(self, clydesdale, queries):
        import copy
        query = copy.deepcopy(queries["Q2.1"])
        query.limit = 3
        assert len(clydesdale.execute(query).rows) == 3


class TestStats:
    def test_stats_populated(self, clydesdale, queries, ssb_data):
        clydesdale.execute(queries["Q2.1"])
        stats = clydesdale.stats().execution
        assert stats.rows_probed == len(ssb_data.lineorder)
        assert 0 < stats.rows_matched < stats.rows_probed
        assert stats.hdfs_bytes_read > 0
        # One build per node thanks to JVM reuse + capacity scheduling.
        assert stats.ht_builds <= 4

    def test_scalar_probed_says_when_a_query_left_the_mask_path(
            self, clydesdale, queries):
        # Q1.1 joins one dense slice of ``date``: every stage is a mask.
        clydesdale.execute(queries["Q1.1"])
        assert clydesdale.stats().execution.rows_scalar_probed == 0
        # Q2.1's unfiltered ``date`` table has no dense view; its dict
        # probe sees only what the mask stages before it let through.
        clydesdale.execute(queries["Q2.1"])
        stats = clydesdale.stats().execution
        assert 0 < stats.rows_scalar_probed < stats.rows_probed

    def test_dim_rows_rowwise_says_when_a_build_left_the_mask_path(
            self, clydesdale, ssb_data, queries):
        # Q1.1 filters ``date`` on d_year, a typed buffer: one mask.
        clydesdale.execute(queries["Q1.1"])
        assert clydesdale.stats().execution.dim_rows_rowwise == 0
        # Q3.3 filters ``supplier`` on s_city, stored plain at this
        # size (its dictionary is not smaller): row by row, exactly.
        clydesdale.execute(queries["Q3.3"])
        stats = clydesdale.stats().execution
        assert stats.dim_rows_rowwise > 0
        assert stats.dim_rows_rowwise % len(ssb_data.supplier) == 0

    def test_selectivities_sane(self, clydesdale, queries):
        clydesdale.execute(queries["Q2.1"])
        stats = clydesdale.stats().execution
        # region = 1/5 in expectation (wide bounds: tiny dim tables)
        assert 0.02 < stats.selectivity("supplier") < 0.6
        assert stats.selectivity("date") == 1.0  # no predicate
        assert 0 < stats.join_selectivity() < 0.2

    def test_simulated_time_positive(self, clydesdale, queries):
        result = clydesdale.execute(queries["Q1.2"])
        assert result.simulated_seconds > 0
        assert "map_phase" in result.breakdown


class TestRowGroupGrain:
    """B-CIF hands the kernel each row group as one block, so the
    group size the table was written with is the block size: odd
    layouts must answer exactly as the reference does."""

    @pytest.mark.parametrize("layout", ["one_row_last_group",
                                        "group_larger_than_table"])
    def test_all_ssb_answers_match_reference(self, ssb_data, queries,
                                             layout):
        from repro.api import connect
        rows = len(ssb_data.lineorder)
        size = rows - 1 if layout == "one_row_last_group" else rows + 1000
        engine = ClydesdaleEngine.with_ssb_data(data=ssb_data,
                                                row_group_size=size)
        groups = engine.catalog.meta("lineorder").extras["groups"]
        assert [g["rows"] for g in groups] == (
            [rows - 1, 1] if layout == "one_row_last_group" else [rows])
        session = Session(engine)
        reference = connect("reference", data=ssb_data)
        for name, query in queries.items():
            assert session.execute(query).rows == \
                reference.execute(query).rows, name

    def test_one_table_meta_load_per_job(self, clydesdale, reference,
                                         queries, monkeypatch):
        """The splits carry the schema they were planned with; readers
        do not re-parse the table's metadata per row group."""
        loads = []
        load = TableMeta.load.__func__

        def counting_load(cls, fs, directory):
            loads.append(directory)
            return load(cls, fs, directory)

        monkeypatch.setattr(TableMeta, "load", classmethod(counting_load))
        query = queries["Q2.1"]
        got = clydesdale.execute(query)
        assert loads == [clydesdale.engine.catalog.meta(
            "lineorder").directory]
        assert got.rows == reference.execute(query).rows


class TestFeatureToggles:
    @pytest.mark.parametrize("features", [
        ClydesdaleFeatures(columnar=False),
        ClydesdaleFeatures(block_iteration=False),
        ClydesdaleFeatures(multithreaded=False),
        ClydesdaleFeatures(jvm_reuse=False),
        ClydesdaleFeatures(columnar=False, multithreaded=False,
                           block_iteration=False, jvm_reuse=False),
    ])
    def test_results_invariant_under_features(self, clydesdale, queries,
                                              reference, features):
        expected = reference.execute(queries["Q2.1"])
        got = Session(clydesdale.engine,
                      features=features).execute(queries["Q2.1"])
        assert got.rows == expected.rows

    def test_columnar_off_reads_more_bytes(self, clydesdale, queries):
        clydesdale.execute(queries["Q2.1"])
        on_bytes = clydesdale.stats().execution.hdfs_bytes_read
        Session(clydesdale.engine,
                features=ClydesdaleFeatures(columnar=False)).execute(
            queries["Q2.1"])
        off_bytes = clydesdale.stats().execution.hdfs_bytes_read
        assert off_bytes > 2 * on_bytes

    def test_multithreaded_off_builds_per_task(self, ssb_data, queries):
        # Small row groups force multiple splits so the per-task rebuild
        # behaviour is observable.
        engine = ClydesdaleEngine.with_ssb_data(
            data=ssb_data, num_nodes=4, row_group_size=1_000)
        Session(engine, features=ClydesdaleFeatures(
            multithreaded=False)).execute(queries["Q2.1"])
        off_builds = engine.last_stats.ht_builds
        Session(engine).execute(queries["Q2.1"])
        on_builds = engine.last_stats.ht_builds
        assert off_builds > on_builds
        # MT + JVM reuse: exactly one build per node (paper section 5.1).
        assert on_builds == 4


class TestMemoryEnforcement:
    def test_oom_when_hash_tables_exceed_heap(self, ssb_data, queries):
        """With a (contrived) huge per-entry overhead the join tasks no
        longer fit and the job must fail like Hive's mapjoin does."""
        engine = ClydesdaleEngine.with_ssb_data(
            data=ssb_data, num_nodes=4,
            cluster=tiny_cluster(workers=4, map_slots=2, memory_gb=1),
            cost_model=DEFAULT_COST_MODEL.with_overrides(
                clydesdale_hash_bytes_per_entry=1e9))
        with pytest.raises(JobFailedError):
            Session(engine).execute(queries["Q3.1"])


class TestEngineConstruction:
    def test_with_ssb_data_generates_when_absent(self):
        engine = ClydesdaleEngine.with_ssb_data(scale_factor=0.001,
                                                num_nodes=3)
        assert engine.data.scale_factor == 0.001
        result = Session(engine).execute(
            __import__("repro.ssb.queries",
                       fromlist=["ssb_queries"]).ssb_queries()["Q1.1"])
        assert result.columns == ["revenue"]
