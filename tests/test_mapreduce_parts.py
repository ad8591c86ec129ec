"""Unit tests for MapReduce building blocks: counters, job conf, shuffle,
partitioner, distributed cache, schedulers."""

import pytest

from repro.common.errors import ConfigError, SchedulerError
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.counters import Counters
from repro.mapreduce.distcache import DistributedCache
from repro.mapreduce.inputformat import TextInputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.scheduler import (
    CapacityScheduler,
    FifoScheduler,
)
from repro.mapreduce.shuffle import (
    HashPartitioner,
    _stable_hash,
    merge_and_group,
    partition_output,
    run_combiner,
)
from repro.mapreduce.types import FileSplit, MultiSplit
from repro.sim.hardware import tiny_cluster


class TestCounters:
    def test_increment_and_get(self):
        counters = Counters()
        counters.increment("g", "n", 3)
        counters.increment("g", "n")
        assert counters.get("g", "n") == 4

    def test_missing_counter_is_zero(self):
        assert Counters().get("g", "n") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "x", 1)
        b.increment("g", "x", 2)
        b.increment("h", "y", 5)
        a.merge(b)
        assert a.get("g", "x") == 3
        assert a.get("h", "y") == 5

    def test_items_sorted(self):
        counters = Counters()
        counters.increment("b", "z")
        counters.increment("a", "y")
        assert [g for g, _, _ in counters.items()] == ["a", "b"]

    def test_as_dict(self):
        counters = Counters()
        counters.increment("g", "n", 7)
        assert counters.as_dict() == {"g": {"n": 7}}


class TestJobConf:
    def test_input_paths_roundtrip(self):
        job = JobConf("j").set_input_paths(["/a", "/b"])
        assert job.input_paths() == ["/a", "/b"]

    def test_input_paths_single_string(self):
        assert JobConf("j").set_input_paths("/a").input_paths() == ["/a"]

    def test_missing_input_paths(self):
        with pytest.raises(ConfigError):
            JobConf("j").input_paths()

    def test_reduce_tasks_default_one(self):
        assert JobConf("j").num_reduce_tasks() == 1

    def test_negative_reduces_rejected(self):
        with pytest.raises(ConfigError):
            JobConf("j").set_num_reduce_tasks(-1)

    def test_jvm_reuse_flag(self):
        job = JobConf("j")
        assert not job.jvm_reuse_enabled()
        job.enable_jvm_reuse()
        assert job.jvm_reuse_enabled()
        job.enable_jvm_reuse(False)
        assert not job.jvm_reuse_enabled()

    def test_task_memory(self):
        job = JobConf("j")
        assert job.task_memory_mb() is None
        job.set_task_memory_mb(2048)
        assert job.task_memory_mb() == 2048

    def test_validate_requires_input_format(self):
        with pytest.raises(ConfigError):
            JobConf("j").validate()

    def test_validate_requires_reducer_when_reduces(self):
        job = JobConf("j")
        job.input_format = TextInputFormat()
        job.mapper_class = object
        with pytest.raises(ConfigError):
            job.validate()
        job.set_num_reduce_tasks(0)
        job.validate()

    def test_name(self):
        assert JobConf("wordcount").name == "wordcount"


class TestPartitioner:
    def test_stable_across_runs(self):
        p = HashPartitioner()
        assert p.partition(("a", 1993), 7) == p.partition(("a", 1993), 7)

    def test_within_bounds(self):
        p = HashPartitioner()
        for key in [0, -5, "x", 2.5, ("a", "b"), ("n", 3, 1.0)]:
            assert 0 <= p.partition(key, 5) < 5

    def test_distributes_keys(self):
        p = HashPartitioner()
        buckets = {p.partition(f"key-{i}", 8) for i in range(200)}
        assert len(buckets) == 8

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner().partition("k", 0)

    @pytest.mark.parametrize("key,expected", [
        # Pinned values: partitions, reduce durations and simulated
        # seconds depend on them, so a memo or rewrite must keep them.
        ("", 2166136261), ("ASIA", 3424068215),
        ("UNITED KI1", 3448037029), ("MFGR#2221", 2705490837),
        ("naïve", 2577008683), (0, 0), (1994, 1994), (-7, 2147483641),
        (2**40, 0), (1.5, 1), (-0.0, 0), ((1994, "ASIA"), 1053513054),
        (("UNITED ST0", "UNITED KI1", 1997), 152636420),
        ((), 2166136261)])
    def test_stable_hash_golden_values(self, key, expected):
        assert _stable_hash(key) == expected
        assert _stable_hash(key) == expected  # again, from the memo


class TestShuffleHelpers:
    def test_partition_output(self):
        pairs = [(i, i * 10) for i in range(10)]
        buckets = partition_output(pairs, HashPartitioner(), 3)
        assert sum(len(b) for b in buckets) == 10

    def test_merge_and_group_sorts_and_groups(self):
        groups = merge_and_group([[("b", 1), ("a", 2)], [("a", 3)]])
        assert groups == [("a", [2, 3]), ("b", [1])]

    def test_merge_and_group_empty(self):
        assert merge_and_group([[], []]) == []

    def test_run_combiner_sums(self):
        pairs = [("x", 1), ("y", 2), ("x", 3)]
        combined = run_combiner(pairs,
                                lambda k, vs: [(k, sum(vs))])
        assert sorted(combined) == [("x", 4), ("y", 2)]


class TestSplits:
    def test_file_split_properties(self):
        split = FileSplit("/f", 10, 20, ("node000",))
        assert split.length == 20
        assert split.locations() == ("node000",)

    def test_multi_split_length(self):
        multi = MultiSplit([FileSplit("/f", 0, 5, ()),
                            FileSplit("/f", 5, 7, ())])
        assert multi.length == 12

    def test_multi_split_prefers_common_hosts(self):
        multi = MultiSplit([
            FileSplit("/f", 0, 1, ("a", "b")),
            FileSplit("/f", 1, 1, ("b", "c")),
        ])
        assert multi.locations()[0] == "b"

    def test_multi_split_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiSplit([])


class TestDistributedCache:
    def test_localizes_once_per_node(self):
        fs = MiniDFS(num_nodes=3)
        fs.write_file("/cache/f.bin", b"payload")
        cache = DistributedCache(fs)
        report = cache.localize(["/cache/f.bin"], "job1")
        assert report.node_copies == 3
        # Second call is a no-op for the same job+file.
        report2 = cache.localize(["/cache/f.bin"], "job1")
        assert report2.node_copies == 0

    def test_read_local(self):
        fs = MiniDFS(num_nodes=2)
        fs.write_file("/cache/f.bin", b"payload")
        DistributedCache(fs).localize(["/cache/f.bin"], "j")
        assert DistributedCache(fs).read_local(
            "node001", "j", "/cache/f.bin") == b"payload"

    def test_bytes_accounted(self):
        fs = MiniDFS(num_nodes=4)
        fs.write_file("/cache/f.bin", b"12345")
        report = DistributedCache(fs).localize(["/cache/f.bin"], "j")
        assert report.bytes_broadcast == 5 * 4


class _Splits:
    """Helpers for scheduler tests."""

    @staticmethod
    def make(hosts_per_split):
        return [FileSplit(f"/f{i}", 0, 100, hosts)
                for i, hosts in enumerate(hosts_per_split)]


class TestSchedulers:
    def test_fifo_prefers_local(self):
        cluster = tiny_cluster(workers=3, map_slots=2)
        splits = _Splits.make([("node001",), ("node002",), ("node001",)])
        plan = FifoScheduler().plan(
            splits, ["node000", "node001", "node002"], JobConf("j"),
            cluster)
        assert all(a.data_local for a in plan.assignments)
        assert plan.data_local_fraction == 1.0

    def test_fifo_balances_load(self):
        cluster = tiny_cluster(workers=2, map_slots=2)
        splits = _Splits.make([()] * 10)
        plan = FifoScheduler().plan(splits, ["node000", "node001"],
                                    JobConf("j"), cluster)
        per_node = [len(plan.tasks_on("node000")),
                    len(plan.tasks_on("node001"))]
        assert per_node == [5, 5]

    def test_fifo_no_nodes_raises(self):
        with pytest.raises(SchedulerError):
            FifoScheduler().plan(_Splits.make([()]), [], JobConf("j"),
                                 tiny_cluster())

    def test_capacity_scheduler_default_full_concurrency(self):
        cluster = tiny_cluster(workers=2, map_slots=4)
        assert CapacityScheduler().concurrency(JobConf("j"), cluster) == 4

    def test_capacity_scheduler_big_memory_gets_one_per_node(self):
        cluster = tiny_cluster(workers=2, map_slots=4, memory_gb=8)
        job = JobConf("j").set_task_memory_mb(int(8 * 1024 * 0.9))
        assert CapacityScheduler().concurrency(job, cluster) == 1

    def test_capacity_scheduler_medium_memory(self):
        cluster = tiny_cluster(workers=2, map_slots=4, memory_gb=8)
        # slot memory = 8GB/5 = 1.6GB; a 3 GB task needs 2 slots -> 2
        # concurrent tasks per node.
        job = JobConf("j").set_task_memory_mb(3 * 1024)
        assert CapacityScheduler().concurrency(job, cluster) == 2

    def test_remote_split_assigned_somewhere(self):
        cluster = tiny_cluster(workers=2, map_slots=2)
        splits = _Splits.make([("node999",)])
        plan = FifoScheduler().plan(splits, ["node000", "node001"],
                                    JobConf("j"), cluster)
        assert plan.assignments[0].node_id in ("node000", "node001")
        assert not plan.assignments[0].data_local
