"""Tracing end-to-end: results are byte-identical with the flag on vs
off across the full SSB workload, retried map tasks leave honest span
evidence, and the bare ``clydesdale.trace`` flag works on a raw job."""

from __future__ import annotations

import pytest

from repro.common.errors import JobFailedError
from repro.common.keys import CTR_TRACE_SPANS, KEY_TRACE
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.api import Mapper
from repro.mapreduce.counters import Counters
from repro.mapreduce.inputformat import TextInputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.outputformat import CollectingOutputFormat
from repro.mapreduce.runtime import JobRunner
from repro.serve.session import Session
from repro.trace.tracer import (
    CAT_TASK,
    STATUS_FAILED,
    STATUS_OPEN,
    STATUS_RETRIED,
)


# --------------------------------------------------------------------- #
# Differential: tracing must be observation, never interference
# --------------------------------------------------------------------- #

def _frozen(result):
    """Byte-stable view of a query result."""
    return result.columns, repr(result.rows)


def test_clydesdale_results_identical_with_tracing(clydesdale, reference,
                                                   queries):
    for name, query in queries.items():
        off = clydesdale.execute(query, trace=False)
        on = clydesdale.execute(query, trace=True)
        assert _frozen(on) == _frozen(off), name
        assert sorted(on.rows) == sorted(reference.execute(query).rows), name
        assert clydesdale.last_trace is not None
        assert clydesdale.last_trace.violations() == [], name


def test_hive_results_identical_with_tracing(hive, reference, queries):
    for plan in ("mapjoin", "repartition"):
        session = Session(hive.engine, plan=plan)
        for name, query in queries.items():
            off = session.execute(query, trace=False)
            on = session.execute(query, trace=True)
            assert _frozen(on) == _frozen(off), (plan, name)
            assert sorted(on.rows) == \
                sorted(reference.execute(query).rows), (plan, name)
            assert session.last_trace.violations() == [], (plan, name)


def test_tracing_off_leaves_no_trace_state(clydesdale, queries):
    clydesdale.execute(queries["Q1.1"], trace=False)
    assert clydesdale.last_trace is None
    assert clydesdale.stats().execution.phases == {}
    assert clydesdale.stats().execution.trace is None


# --------------------------------------------------------------------- #
# Fault injection: retried tasks leave failed + retried spans
# --------------------------------------------------------------------- #

TEXT = "alpha beta gamma\n" * 4

FAIL_ON_NODES: set[str] = set()


class FlakyMapper(Mapper):
    """Fails whenever it runs on a node listed in FAIL_ON_NODES."""

    def map(self, key, value, collector, context):
        if context.node_id in FAIL_ON_NODES:
            raise RuntimeError(f"injected failure on {context.node_id}")
        collector.collect(value, 1)


def make_job():
    job = JobConf("flaky-traced").set_input_paths("/in")
    job.input_format = TextInputFormat()
    job.mapper_class = FlakyMapper
    job.set_num_reduce_tasks(0)
    job.output_format = CollectingOutputFormat()
    job.set(KEY_TRACE, True)
    return job


@pytest.fixture
def fs():
    filesystem = MiniDFS(num_nodes=4, block_size=1024)
    filesystem.write_file("/in/doc.txt", TEXT.encode())
    FAIL_ON_NODES.clear()
    return filesystem


def test_retried_task_spans_marked_and_tree_consistent(fs):
    job = make_job()
    splits = job.input_format.get_splits(fs, job)
    FAIL_ON_NODES.add(splits[0].locations()[0])
    result = JobRunner(fs).run(job)
    assert result.counters.get(Counters.GROUP_MAP, "task_retries") >= 1

    # The bare flag made the runtime attach a tracer to the conf.
    tree = job.tracer.tree()
    assert tree.violations() == []
    assert job.tracer.open_spans() == []

    attempts = tree.find("map_task")
    statuses = sorted(s.status for s in attempts)
    assert STATUS_FAILED in statuses
    assert STATUS_RETRIED in statuses
    failed = [s for s in attempts if s.status == STATUS_FAILED]
    retried = [s for s in attempts if s.status == STATUS_RETRIED]
    assert all(s.category == CAT_TASK for s in attempts)
    # The failed attempt ran on a poisoned node; the retry did not, and
    # each attempt is its own closed span (no reuse across the retry).
    assert all(s.attrs["node"] in FAIL_ON_NODES for s in failed)
    assert all(s.attrs["node"] not in FAIL_ON_NODES for s in retried)
    assert all(s.attrs["attempt"] == 0 for s in failed)
    assert all(s.attrs["attempt"] >= 1 for s in retried)


def test_exhausted_attempts_leave_closed_failed_spans(fs):
    FAIL_ON_NODES.update(fs.live_nodes())
    job = make_job()
    with pytest.raises(JobFailedError):
        JobRunner(fs).run(job)
    tree = job.tracer.tree()
    assert job.tracer.open_spans() == []
    assert all(s.status != STATUS_OPEN for s in tree.spans)
    attempts = tree.find("map_task")
    assert attempts
    assert all(s.status == STATUS_FAILED for s in attempts)
    # The enclosing job span reports the failure too.
    (job_span,) = tree.find("job")
    assert job_span.status == STATUS_FAILED


def test_flag_only_job_records_span_counter(fs):
    FAIL_ON_NODES.clear()
    job = make_job()
    result = JobRunner(fs).run(job)
    spans = result.counters.get(Counters.GROUP_JOB, CTR_TRACE_SPANS)
    assert spans == job.tracer.num_spans() > 0
    # Counters are mirrored onto the job span's attributes.
    (job_span,) = job.tracer.tree().find("job")
    assert job_span.attrs[f"{Counters.GROUP_JOB}.{CTR_TRACE_SPANS}"] == spans
