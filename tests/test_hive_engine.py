"""Tests for the Hive baseline engine: both plans, stage structure,
broadcast machinery, OOM behaviour."""

import pytest

from repro.common.errors import JobFailedError, PlanningError
from repro.hive.engine import HiveEngine, PLAN_MAPJOIN, PLAN_REPARTITION
from repro.serve.session import Session
from repro.sim.costs import DEFAULT_COST_MODEL
from repro.sim.hardware import tiny_cluster


class TestCorrectness:
    @pytest.mark.parametrize("plan", [PLAN_MAPJOIN, PLAN_REPARTITION])
    def test_q21(self, hive, reference, queries, plan):
        expected = reference.execute(queries["Q2.1"])
        got = Session(hive.engine, plan=plan).execute(queries["Q2.1"])
        assert got.rows == expected.rows

    @pytest.mark.parametrize("plan", [PLAN_MAPJOIN, PLAN_REPARTITION])
    def test_flight1_fact_predicates(self, hive, reference, queries, plan):
        expected = reference.execute(queries["Q1.3"])
        got = Session(hive.engine, plan=plan).execute(queries["Q1.3"])
        assert got.rows == expected.rows

    @pytest.mark.parametrize("plan", [PLAN_MAPJOIN, PLAN_REPARTITION])
    def test_flight4_four_dimensions(self, hive, reference, queries, plan):
        expected = reference.execute(queries["Q4.1"])
        got = Session(hive.engine, plan=plan).execute(queries["Q4.1"])
        assert got.rows == expected.rows

    def test_unknown_plan_rejected(self, hive, queries):
        with pytest.raises(PlanningError):
            Session(hive.engine, plan="hashjoin").execute(queries["Q1.1"])

    def test_repeat_execution_same_result(self, hive, queries):
        first = hive.execute(queries["Q2.2"])
        second = hive.execute(queries["Q2.2"])
        assert first.rows == second.rows


class TestStageStructure:
    def test_mapjoin_stage_count(self, hive, queries):
        hive.execute(queries["Q2.1"])
        stats = hive.stats().execution
        # 3 joins + groupby + orderby
        assert len(stats.stages) == 5
        assert "mapjoin" in stats.stages[0].name
        assert "groupby" in stats.stages[3].name
        assert "orderby" in stats.stages[4].name

    def test_flight1_has_no_orderby_stage(self, hive, queries):
        hive.execute(queries["Q1.1"])
        assert all("orderby" not in s.name
                   for s in hive.stats().execution.stages)

    def test_stage_rows_shrink_with_predicates(self, hive, queries,
                                               ssb_data):
        hive.execute(queries["Q2.1"])
        stages = hive.stats().execution.stages
        assert stages[0].rows_in == len(ssb_data.lineorder)
        # part (1/25) then supplier (1/5) shrink the stream
        assert stages[1].rows_out < stages[1].rows_in
        assert stages[2].rows_out <= stages[2].rows_in

    def test_joins_run_one_dimension_at_a_time(self, hive, queries):
        hive.execute(queries["Q4.2"])
        join_stages = [s for s in hive.stats().execution.stages
                       if "mapjoin" in s.name]
        assert len(join_stages) == 4
        dims = [s.name.rsplit(":", 1)[1] for s in join_stages]
        assert dims == ["customer", "supplier", "part", "date"]

    def test_intermediates_written_to_hdfs(self, hive, queries):
        hive.execute(queries["Q2.1"])
        scratch_files = hive.engine.fs.list_dir(hive.engine.last_scratch)
        assert any("stage1" in p for p in scratch_files)
        assert any("ht_" in p for p in scratch_files)

    def test_repartition_uses_reducers(self, hive_repartition, queries):
        hive_repartition.execute(queries["Q1.1"])
        stage1 = hive_repartition.stats().execution.stages[0]
        assert stage1.job is not None
        assert stage1.job.reduce_tasks

    def test_mapjoin_stages_are_map_only(self, hive, queries):
        hive.execute(queries["Q1.1"])
        stage1 = hive.stats().execution.stages[0]
        assert stage1.job.reduce_tasks == []

    def test_no_jvm_reuse(self, hive, queries):
        hive.execute(queries["Q1.1"])
        stage1 = hive.stats().execution.stages[0]
        assert all(not t.jvm_reused for t in stage1.job.map_tasks)

    def test_hash_reloaded_per_task(self, ssb_data, queries):
        engine = HiveEngine.with_ssb_data(data=ssb_data, num_nodes=4,
                                          row_group_size=1_000)
        Session(engine, plan=PLAN_MAPJOIN).execute(queries["Q1.1"])
        stage1 = engine.last_stats.stages[0]
        reloads = stage1.job.counters.get("hive", "ht_reloads")
        assert reloads == stage1.job.num_map_tasks
        assert reloads > 1  # redundant work, unlike Clydesdale

    def test_total_seconds_sums_stages(self, hive, queries):
        result = hive.execute(queries["Q2.1"])
        assert result.simulated_seconds == pytest.approx(
            sum(s.simulated_seconds for s in hive.stats().execution.stages))


class TestHiveSlowerThanClydesdale:
    @pytest.mark.parametrize("plan", [PLAN_MAPJOIN, PLAN_REPARTITION])
    def test_simulated_time_ordering(self, hive, clydesdale, queries,
                                     plan):
        """Even at tiny scale the structural overheads dominate."""
        fast = clydesdale.execute(queries["Q2.1"]).simulated_seconds
        slow = Session(hive.engine, plan=plan).execute(
            queries["Q2.1"]).simulated_seconds
        assert slow > 2 * fast


class TestMapjoinOOM:
    def test_oom_on_memory_starved_cluster(self, ssb_data, queries):
        engine = HiveEngine.with_ssb_data(
            data=ssb_data, num_nodes=4,
            cluster=tiny_cluster(workers=4, map_slots=2, memory_gb=1),
            cost_model=DEFAULT_COST_MODEL.with_overrides(
                hive_hash_bytes_per_entry=1e9))
        with pytest.raises(JobFailedError) as excinfo:
            Session(engine, plan=PLAN_MAPJOIN).execute(queries["Q3.1"])
        assert "MB" in str(excinfo.value)

    def test_repartition_survives_same_conditions(self, ssb_data, queries):
        engine = HiveEngine.with_ssb_data(
            data=ssb_data, num_nodes=4,
            cluster=tiny_cluster(workers=4, map_slots=2, memory_gb=1),
            cost_model=DEFAULT_COST_MODEL.with_overrides(
                hive_hash_bytes_per_entry=1e9))
        result = Session(engine, plan=PLAN_REPARTITION).execute(
            queries["Q3.1"])
        assert result.rows  # robust plan completes (paper section 6.1)
