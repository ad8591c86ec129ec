"""Task-retry semantics: a failing map attempt is retried on a
different node (Hadoop's mapred.map.max.attempts behaviour)."""

import pytest

from repro.common.errors import JobFailedError
from repro.hdfs.filesystem import MiniDFS
from repro.serve.session import Session
from repro.mapreduce.api import Mapper
from repro.mapreduce.inputformat import TextInputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.runtime import JobRunner

TEXT = "alpha beta gamma\n" * 4

#: Module-level switchboard the flaky mapper consults (task contexts are
#: fresh per attempt, so state must live outside).
FAIL_ON_NODES: set[str] = set()
ATTEMPT_LOG: list[str] = []


class FlakyMapper(Mapper):
    """Fails whenever it runs on a node listed in FAIL_ON_NODES."""

    def map(self, key, value, collector, context):
        ATTEMPT_LOG.append(context.node_id)
        if context.node_id in FAIL_ON_NODES:
            raise RuntimeError(f"injected failure on {context.node_id}")
        collector.collect(value, 1)


def make_job():
    job = JobConf("flaky").set_input_paths("/in")
    job.input_format = TextInputFormat()
    job.mapper_class = FlakyMapper
    job.set_num_reduce_tasks(0)
    job.output_format = CollectingOutputFormat()
    return job


@pytest.fixture
def fs():
    filesystem = MiniDFS(num_nodes=4, block_size=1024)
    filesystem.write_file("/in/doc.txt", TEXT.encode())
    FAIL_ON_NODES.clear()
    ATTEMPT_LOG.clear()
    return filesystem


def test_retry_on_another_node_succeeds(fs):
    # Fail on whichever node hosts the (only) split first.
    job = make_job()
    splits = job.input_format.get_splits(fs, job)
    first_node = splits[0].locations()[0]
    FAIL_ON_NODES.add(first_node)
    result = JobRunner(fs).run(job)
    assert result.counters.get("map", "task_retries") >= 1
    assert len(job.output_format.results) == 4
    # The attempt log shows the failed node then a different one.
    assert ATTEMPT_LOG[0] in FAIL_ON_NODES
    assert ATTEMPT_LOG[-1] not in FAIL_ON_NODES


def test_exhausted_attempts_fail_job(fs):
    FAIL_ON_NODES.update(fs.live_nodes())  # nowhere safe to run
    job = make_job()
    with pytest.raises(JobFailedError) as excinfo:
        JobRunner(fs).run(job)
    assert "attempt" in str(excinfo.value)


def test_max_attempts_config_respected(fs):
    FAIL_ON_NODES.update(fs.live_nodes())
    job = make_job()
    job.set("mapred.map.max.attempts", 2)
    with pytest.raises(JobFailedError):
        JobRunner(fs).run(job)
    assert len(ATTEMPT_LOG) == 2


def test_no_retries_on_success(fs):
    job = make_job()
    result = JobRunner(fs).run(job)
    assert result.counters.get("map", "task_retries") == 0


def test_query_survives_mid_job_node_failure_via_replicas(fs):
    """Total-node-loss during a query: the filesystem serves remote
    replicas, so no retry is even needed (the paper's HDFS argument)."""
    from repro.core.engine import ClydesdaleEngine
    from repro.ssb.datagen import SSBGenerator
    from repro.ssb.queries import ssb_queries
    data = SSBGenerator(scale_factor=0.002, seed=9).generate()
    engine = ClydesdaleEngine.with_ssb_data(data=data, num_nodes=5,
                                            row_group_size=2_000)
    query = ssb_queries()["Q1.1"]
    baseline = Session(engine).execute(query)
    engine.fs.fail_node(engine.fs.live_nodes()[0])
    assert Session(engine).execute(query).rows == baseline.rows
