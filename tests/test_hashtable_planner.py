"""Tests for dimension hash tables and the Clydesdale planner."""

import pytest

from repro.common.errors import PlanningError, QueryError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.expressions import Col, Comparison, TruePredicate
from repro.core.hashtable import DimensionHashTable
from repro.core.planner import (
    ClydesdaleFeatures,
    fact_scan_columns,
    plan_star_join,
    validate_query,
)
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.mapreduce.scheduler import CapacityScheduler, FifoScheduler
from repro.sim.costs import DEFAULT_COST_MODEL
from repro.sim.hardware import tiny_cluster
from repro.ssb.queries import ssb_queries

DIM_SCHEMA = Schema([("pk", DataType.INT32), ("region", DataType.STRING),
                     ("nation", DataType.STRING)])
DIM_ROWS = [(1, "ASIA", "CHINA"), (2, "ASIA", "JAPAN"),
            (3, "EUROPE", "FRANCE"), (4, "AMERICA", "PERU")]


class TestDimensionHashTable:
    def build(self, predicate=None, aux=("nation",)):
        return DimensionHashTable.build(
            "dim", "fk", DIM_SCHEMA, DIM_ROWS, "pk",
            predicate or TruePredicate(), list(aux))

    def test_build_all_rows(self):
        table = self.build()
        assert len(table) == 4
        assert table.probe(2) == ("JAPAN",)

    def test_predicate_filters(self):
        table = self.build(Comparison("region", "=", "ASIA"))
        assert len(table) == 2
        assert table.probe(3) is None
        assert 1 in table

    def test_probe_miss_returns_none(self):
        assert self.build().probe(99) is None

    def test_multiple_aux_columns(self):
        table = self.build(aux=("region", "nation"))
        assert table.probe(4) == ("AMERICA", "PERU")

    def test_zero_aux_columns(self):
        table = self.build(aux=())
        assert table.probe(1) == ()

    def test_duplicate_pk_rejected(self):
        with pytest.raises(QueryError):
            DimensionHashTable.build(
                "dim", "fk", DIM_SCHEMA, DIM_ROWS + [(1, "X", "Y")],
                "pk", TruePredicate(), [])

    def test_stats(self):
        table = self.build(Comparison("region", "=", "ASIA"))
        assert table.stats.rows_scanned == 4
        assert table.stats.entries == 2
        assert table.stats.estimated_bytes(100.0) == 200.0


@pytest.fixture(scope="module")
def ssb_catalog():
    from repro.hdfs.filesystem import MiniDFS
    from repro.hdfs.placement import CoLocatingPlacementPolicy
    from repro.ssb.datagen import SSBGenerator
    from repro.ssb.loader import load_for_clydesdale
    fs = MiniDFS(num_nodes=3, placement=CoLocatingPlacementPolicy())
    data = SSBGenerator(scale_factor=0.001, seed=1).generate()
    return fs, load_for_clydesdale(fs, data)


class TestValidateQuery:
    def test_all_ssb_queries_valid(self, ssb_catalog):
        _, catalog = ssb_catalog
        for query in ssb_queries().values():
            validate_query(query, catalog)

    def test_unknown_fact_table(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = ssb_queries()["Q1.1"]
        query.fact_table = "nope"
        with pytest.raises(PlanningError):
            validate_query(query, catalog)

    def test_unknown_dimension(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = ssb_queries()["Q1.1"]
        query.joins[0].dimension = "nope"
        with pytest.raises(PlanningError):
            validate_query(query, catalog)

    def test_bad_fk(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = ssb_queries()["Q1.1"]
        query.joins[0].fact_fk = "lo_missing"
        with pytest.raises(PlanningError):
            validate_query(query, catalog)

    def test_bad_group_by(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = ssb_queries()["Q2.1"]
        query.group_by = ["mystery_col"]
        with pytest.raises(PlanningError):
            validate_query(query, catalog)

    def test_aggregate_must_use_fact_columns(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = StarQuery(
            name="bad", fact_table="lineorder",
            joins=[DimensionJoin("date", "lo_orderdate", "d_datekey")],
            aggregates=[Aggregate("sum", Col("d_year"), alias="x")])
        with pytest.raises(PlanningError):
            validate_query(query, catalog)


class TestPlanning:
    def test_fact_scan_columns_q21(self, ssb_catalog):
        _, catalog = ssb_catalog
        columns = fact_scan_columns(ssb_queries()["Q2.1"], catalog)
        assert set(columns) == {"lo_orderdate", "lo_partkey",
                                "lo_suppkey", "lo_revenue"}

    def test_fact_scan_columns_include_fact_group(self, ssb_catalog):
        _, catalog = ssb_catalog
        query = StarQuery(
            name="g", fact_table="lineorder",
            joins=[DimensionJoin("date", "lo_orderdate", "d_datekey")],
            aggregates=[Aggregate("sum", Col("lo_revenue"), alias="r")],
            group_by=["lo_shipmode"])
        assert "lo_shipmode" in fact_scan_columns(query, catalog)

    def test_default_plan_uses_multicif_and_capacity(self, ssb_catalog):
        _, catalog = ssb_catalog
        cluster = tiny_cluster(workers=3)
        conf, _ = plan_star_join(ssb_queries()["Q2.1"], catalog, cluster,
                                 DEFAULT_COST_MODEL, ClydesdaleFeatures())
        from repro.storage.multicif import MultiColumnInputFormat
        assert isinstance(conf.input_format, MultiColumnInputFormat)
        assert isinstance(conf.scheduler, CapacityScheduler)
        assert conf.jvm_reuse_enabled()
        assert conf.get_bool("cif.block.iteration")
        assert conf.task_memory_mb() is not None

    def test_single_threaded_plan(self, ssb_catalog):
        _, catalog = ssb_catalog
        cluster = tiny_cluster(workers=3)
        conf, _ = plan_star_join(
            ssb_queries()["Q2.1"], catalog, cluster, DEFAULT_COST_MODEL,
            ClydesdaleFeatures(multithreaded=False))
        from repro.storage.cif import ColumnInputFormat
        from repro.storage.multicif import MultiColumnInputFormat
        assert isinstance(conf.input_format, ColumnInputFormat)
        assert not isinstance(conf.input_format, MultiColumnInputFormat)
        assert isinstance(conf.scheduler, FifoScheduler)
        assert not conf.jvm_reuse_enabled()

    def test_columnar_off_reads_everything(self, ssb_catalog):
        _, catalog = ssb_catalog
        cluster = tiny_cluster(workers=3)
        conf, _ = plan_star_join(
            ssb_queries()["Q2.1"], catalog, cluster, DEFAULT_COST_MODEL,
            ClydesdaleFeatures(columnar=False))
        assert conf.get("cif.columns") is None

    def test_block_iteration_off_slows_probe_rate(self, ssb_catalog):
        _, catalog = ssb_catalog
        cluster = tiny_cluster(workers=3)
        on, _ = plan_star_join(ssb_queries()["Q1.1"], catalog, cluster,
                               DEFAULT_COST_MODEL, ClydesdaleFeatures())
        off, _ = plan_star_join(
            ssb_queries()["Q1.1"], catalog, cluster, DEFAULT_COST_MODEL,
            ClydesdaleFeatures(block_iteration=False))
        key = "clydesdale.rate.probe.rows.per.s.per.thread"
        assert off.get_float(key) < on.get_float(key)

    def test_features_describe(self):
        assert ClydesdaleFeatures().describe() == "all features on"
        assert "columnar" in \
            ClydesdaleFeatures(columnar=False).describe()

    def test_non_cif_fact_rejected(self, ssb_catalog):
        fs, _ = ssb_catalog
        from repro.ssb.datagen import SSBGenerator
        from repro.ssb.loader import load_for_hive
        data = SSBGenerator(scale_factor=0.001, seed=1).generate()
        rc_catalog = load_for_hive(fs, data, root="/hive_alt")
        with pytest.raises(PlanningError):
            plan_star_join(ssb_queries()["Q1.1"], rc_catalog,
                           tiny_cluster(3), DEFAULT_COST_MODEL,
                           ClydesdaleFeatures())


class TestPlanningFootprint:
    """What planning a query costs besides its ``JobConf``s: no file
    read and no garbage for the cycle collector."""

    @pytest.fixture(scope="class")
    def data(self):
        from repro.ssb.datagen import SSBGenerator
        return SSBGenerator(scale_factor=0.002, seed=42).generate()

    def test_planning_reads_no_hdfs_file(self, data, monkeypatch):
        """A fresh session plans all 13 SSB queries from the catalog
        alone: no dimension master copy, no fact byte."""
        from repro.api import connect
        from repro.core import engine as engine_module
        from repro.hdfs.filesystem import MiniDFS

        session = connect("clydesdale", data=data, aggstore=False)
        planning = [False]
        reads: list[str] = []
        read_file = MiniDFS.read_file
        plan_join_passes = engine_module.plan_join_passes

        def counting_read(self, path, *args, **kwargs):
            if planning[0]:
                reads.append(path)
            return read_file(self, path, *args, **kwargs)

        def flagged_plan(*args, **kwargs):
            planning[0] = True
            try:
                return plan_join_passes(*args, **kwargs)
            finally:
                planning[0] = False

        monkeypatch.setattr(MiniDFS, "read_file", counting_read)
        monkeypatch.setattr(engine_module, "plan_join_passes",
                            flagged_plan)
        for query in ssb_queries().values():
            session.execute(query)
        assert reads == []

    def test_warm_queries_leave_no_reference_cycles(self, data):
        """Warm repeats of the 13 SSB queries free everything they
        allocate by reference counting alone."""
        import gc

        from repro.api import connect

        session = connect("clydesdale", data=data, aggstore=False)
        queries = ssb_queries()
        for query in queries.values():
            session.execute(query)
        gc.collect()
        gc.disable()
        try:
            for query in queries.values():
                session.execute(query)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
