"""Tests for fair-share multi-workload scheduling (paper 5.2/8)."""

import pytest

from repro.common.errors import SchedulerError
from repro.core.engine import ClydesdaleEngine
from repro.mapreduce.fairshare import (
    FairShareScheduler,
    MixOutcome,
    WorkloadJob,
    model_concurrent_mix,
)
from repro.mapreduce.job import JobConf
from repro.serve.session import Session
from repro.sim.hardware import cluster_a, tiny_cluster


class TestFairShareScheduler:
    def test_share_bounds(self):
        with pytest.raises(SchedulerError):
            FairShareScheduler(0.0)
        with pytest.raises(SchedulerError):
            FairShareScheduler(1.5)

    def test_granted_slots(self):
        cluster = tiny_cluster(workers=2, map_slots=6)
        assert FairShareScheduler(0.5).granted_slots(cluster) == 3
        assert FairShareScheduler(0.1).granted_slots(cluster) == 1
        assert FairShareScheduler(1.0).granted_slots(cluster) == 6

    def test_concurrency_capped_by_share(self):
        cluster = tiny_cluster(workers=2, map_slots=6)
        job = JobConf("j")
        assert FairShareScheduler(0.5).concurrency(job, cluster) == 3

    def test_memory_exclusive_task_stays_single(self):
        cluster = tiny_cluster(workers=2, map_slots=6, memory_gb=8)
        job = JobConf("j").set_task_memory_mb(int(8 * 1024 * 0.9))
        scheduler = FairShareScheduler(0.5)
        assert scheduler.concurrency(job, cluster) == 1

    def test_plan_records_grant(self):
        from repro.mapreduce.types import FileSplit
        cluster = tiny_cluster(workers=2, map_slots=6)
        job = JobConf("j")
        FairShareScheduler(0.5).plan(
            [FileSplit("/f", 0, 10, ("node000",))],
            ["node000", "node001"], job, cluster)
        assert job.get_int("scheduler.granted.threads") == 3
        assert job.get_float("scheduler.slot.share") == 0.5


class TestSharedClydesdale:
    def test_query_correct_under_half_share(self, ssb_data, queries,
                                            reference):
        """A Clydesdale join job granted half the cores still answers
        correctly, just (simulated-)slower."""
        engine = ClydesdaleEngine.with_ssb_data(data=ssb_data,
                                                num_nodes=4)
        query = queries["Q2.1"]
        full = Session(engine).execute(query)

        from repro.core.planner import plan_star_join
        conf, output = plan_star_join(
            query, engine.catalog, engine.cluster, engine.cost_model,
            engine.features)
        conf.scheduler = FairShareScheduler(0.5)
        result = engine.runner.run(conf)
        rows = sorted(tuple(k) + tuple(v) for k, v in output.results)
        assert rows == sorted(
            tuple(r) for r in reference.execute(query).rows)
        # Half the threads -> probe CPU charge grows -> slower map phase.
        assert result.breakdown["map_phase"] >= \
            full.breakdown["map_phase"] - 1e-9


class TestMixModel:
    def test_concurrent_vs_serial(self):
        cluster = cluster_a()
        # A one-wave join job needs few slots; giving the rest to the
        # ETL job overlaps the two almost perfectly.
        jobs = [
            WorkloadJob("star-join", num_tasks=8, task_seconds=200.0,
                        share=0.2),
            WorkloadJob("etl", num_tasks=480, task_seconds=20.0,
                        share=0.8),
        ]
        outcome = model_concurrent_mix(jobs, cluster)
        assert isinstance(outcome, MixOutcome)
        assert outcome.per_job_seconds["star-join"] > 0
        # Sharing overlaps the jobs; the mix finishes sooner than
        # running them serially at full width.
        assert outcome.sharing_benefit > 1.0

    def test_overcommitted_shares_rejected(self):
        with pytest.raises(SchedulerError):
            model_concurrent_mix(
                [WorkloadJob("a", 1, 1.0, 0.7),
                 WorkloadJob("b", 1, 1.0, 0.7)], cluster_a())

    def test_lone_job_smaller_share_is_slower(self):
        cluster = cluster_a()
        wide = model_concurrent_mix(
            [WorkloadJob("j", 480, 10.0, 1.0)], cluster)
        narrow = model_concurrent_mix(
            [WorkloadJob("j", 480, 10.0, 0.25)], cluster)
        assert narrow.per_job_seconds["j"] > wide.per_job_seconds["j"]

    def test_bad_share_in_workload(self):
        with pytest.raises(SchedulerError):
            WorkloadJob("x", 1, 1.0, 0.0)
