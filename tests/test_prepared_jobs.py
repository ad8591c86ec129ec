"""Prepared jobs and pooled join threads: a warm query pays for its
kernel, not its set-up — and nothing it keeps is ever stale or fragile.

A caching session plans a single-pass query once per (canonical query,
features, generation) and keeps the job, its splits and their decoded
column buffers (:mod:`repro.core.prepared`); join threads come from one
per-process pool (:class:`repro.core.joinjob.JoinThreadPool`). Every
test here compares answers with the reference engine over the same data.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading

import pytest

from repro.api import connect
from repro.common.config import Configuration
from repro.common.keys import (
    COUNTER_GROUP_MAP,
    CTR_TASK_RETRIES,
    KEY_SERVE_RESULT_CACHE,
)
from repro.core import engine as engine_module
from repro.core.engine import ClydesdaleEngine
from repro.core.joinjob import JOIN_THREADS
from repro.core.rollin import append_fact_rows
from repro.hdfs.faults import FaultInjector
from repro.serve.cache import HashTableCache
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries
from repro.storage.tablemeta import TableMeta
from tests.store_contract import (
    PREPARED_JOBS,
    StoreBudgetContract,
    StoreStampContract,
)

Q21 = ssb_queries()["Q2.1"]


def _expected(data, query, lineorder=None):
    if lineorder is not None:
        data = dataclasses.replace(data, lineorder=lineorder)
    return connect("reference", data=data).execute(query).rows


def _fresh_batch(data, count, seed=77):
    """Extra fact rows referencing the same dimensions."""
    gen = SSBGenerator(scale_factor=count / 6_000_000, seed=seed)
    return list(gen.iter_lineorder(
        len(data.customer), len(data.supplier), len(data.part),
        [row[0] for row in data.date]))


def _plan_span(session, query):
    session.execute(query, trace=True)
    (span,) = session.last_trace.find("plan")
    return span.attrs


def _within(seconds, step):
    """Run ``step`` on a helper thread; fail if it has not returned
    within ``seconds`` (a hang, not an error, is what a fork-inherited
    pool would cause)."""
    out = {}

    def body():
        try:
            out["value"] = step()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    helper.join(seconds)
    if helper.is_alive():
        pytest.fail(f"step did not finish within {seconds} s")
    if "error" in out:
        raise out["error"]
    return out.get("value")


@pytest.fixture(scope="module")
def data():
    return SSBGenerator(scale_factor=0.002, seed=42).generate()


def _session(data, row_group_size=1_000, **kwargs):
    """A caching session whose map tasks each get several row groups
    (so join threads really run on the pool)."""
    engine = ClydesdaleEngine.with_ssb_data(
        data=data, num_nodes=4, row_group_size=row_group_size)
    return Session(engine, cache=HashTableCache(64 * 2**20, **kwargs))


class TestPreparedJobStore(StoreBudgetContract, StoreStampContract):
    config = PREPARED_JOBS


class TestNothingIsSetUpTwice:
    def test_second_warm_pass_plans_parses_and_starts_nothing(
            self, data, monkeypatch):
        session = _session(data)
        queries = list(ssb_queries().values())
        for query in queries:
            session.execute(query)
        calls = {"plan": 0, "meta": 0}
        plan = engine_module.plan_join_passes
        from_json = TableMeta.from_json.__func__

        def counting_plan(*args, **kwargs):
            calls["plan"] += 1
            return plan(*args, **kwargs)

        def counting_from_json(cls, raw):
            calls["meta"] += 1
            return from_json(cls, raw)

        monkeypatch.setattr(engine_module, "plan_join_passes",
                            counting_plan)
        monkeypatch.setattr(TableMeta, "from_json",
                            classmethod(counting_from_json))
        threads = set(threading.enumerate())
        for query in queries:
            assert session.execute(query).rows == _expected(data, query)
            stats = session.stats().execution
            assert stats.jobs_prepared == 0 and stats.ht_builds == 0
        assert calls == {"plan": 0, "meta": 0}
        assert set(threading.enumerate()) == threads

    def test_plan_span_says_prepared_and_why_not(self, data):
        session = _session(data)
        first = _plan_span(session, Q21)
        assert first["prepared"] is False
        assert first["reason"] == "first run"
        assert session.stats().execution.jobs_prepared == 1
        again = _plan_span(session, Q21)
        assert again["prepared"] is True and "reason" not in again
        assert session.stats().execution.jobs_prepared == 0
        uncached = Session(session.engine)
        assert _plan_span(uncached, Q21)["reason"] == "no cache"

    def test_join_thread_spans_carry_their_cpu(self, data):
        session = _session(data)
        session.execute(Q21, trace=True)
        spans = session.last_trace.find("join_thread")
        assert spans
        for span in spans:
            assert 0 <= span.attrs["cpu_ms"]
        assert any(span.thread.startswith("join-thread-")
                   for span in spans)


class TestNeverStale:
    """After a warm Q2.1, each change to the data is followed by a
    repeat that must equal the reference over the same data."""

    def test_roll_in(self, data):
        session = _session(data)
        session.execute(Q21)
        batch = _fresh_batch(data, 2_000)
        session.roll_in("lineorder", batch)
        assert _plan_span(session, Q21)["reason"] == "meta changed"
        assert session.execute(Q21).rows == _expected(
            data, Q21, data.lineorder + batch)
        assert _plan_span(session, Q21)["prepared"] is True

    def test_roll_out(self, data):
        session = _session(data)
        session.execute(Q21)
        session.roll_out("lineorder", 3)
        rows = session.execute(Q21).rows
        assert rows == _expected(data, Q21, data.lineorder[3_000:])

    def test_direct_append(self, data):
        session = _session(data)
        session.execute(Q21)
        batch = _fresh_batch(data, 1_500, seed=5)
        engine = session.engine
        append_fact_rows(engine.fs, engine.catalog.meta("lineorder"),
                         batch)
        assert session.execute(Q21).rows == _expected(
            data, Q21, data.lineorder + batch)

    def test_reload_catalog(self, data):
        session = connect("clydesdale", data=data, aggstore=False)
        session.execute(Q21)
        other = SSBGenerator(scale_factor=0.002, seed=9).generate()
        session.reload_catalog(other)
        assert _plan_span(session, Q21)["reason"] == "first run"
        assert session.execute(Q21).rows == _expected(other, Q21)

    def test_invalidate_cache_drops_prepared_jobs(self, data):
        session = _session(data)
        session.execute(Q21)
        store = session.engine.prepared_jobs
        assert len(store) == 1
        session.invalidate_cache()
        assert len(store) == 0
        assert session.cache.stats().entries == 0


class TestNeverFragile:
    def test_failed_node_retries_as_a_fresh_session_does(self, data):
        warm = _session(data)
        warm.execute(Q21)
        warm.execute(Q21)
        fresh = _session(data)
        victim = sorted(warm.engine.fs.node_ids)[1]
        for session in (warm, fresh):
            injector = FaultInjector(session.engine.fs)
            injector.kill_node(victim)
            injector.heal()
            injector.recover_node(victim)
        rows = warm.execute(Q21, trace=True).rows
        (plan,) = warm.last_trace.find("plan")
        assert plan.attrs["reason"] == "placement changed"
        warm_stats = warm.stats().execution
        fresh_rows = fresh.execute(Q21).rows
        fresh_stats = fresh.stats().execution
        assert rows == fresh_rows == _expected(data, Q21)

        def retries(stats):
            return stats.job.counters.get(COUNTER_GROUP_MAP,
                                          CTR_TASK_RETRIES)

        assert retries(warm_stats) == retries(fresh_stats)
        assert warm_stats.hdfs_bytes_read == fresh_stats.hdfs_bytes_read

    def test_prepared_runs_charge_what_they_read(self, data):
        session = _session(data)
        session.execute(Q21)
        cold = session.stats().execution
        session.execute(Q21)
        warm = session.stats().execution
        assert warm.hdfs_bytes_read == cold.hdfs_bytes_read
        assert warm.job.simulated_seconds <= cold.job.simulated_seconds
        assert warm.rows_probed == cold.rows_probed


def _fan_out_in_child(conn):
    names = []
    JOIN_THREADS.fan_out(
        lambda: names.append(threading.current_thread().name), 2)
    conn.send(sorted(names))
    conn.close()


class TestForkSafety:
    def test_forked_child_gets_a_pool_of_its_own(self):
        JOIN_THREADS.fan_out(lambda: None, 2)  # parked threads now
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe()
        child = ctx.Process(target=_fan_out_in_child, args=(child_end,))
        child.start()
        try:
            assert parent_end.poll(30), "forked child hung in the pool"
            assert parent_end.recv() == ["join-thread-0", "join-thread-1"]
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()

    def test_frontend_workers_after_an_in_process_query(self):
        # SF 0.02 gives the workers' map tasks several row groups each,
        # so their join threads run on their own (post-fork) pool.
        data = SSBGenerator(scale_factor=0.02, seed=42).generate()
        query = ssb_queries()["Q1.1"]
        expected = _expected(data, query)
        local = _session(data, row_group_size=25_000)
        assert _within(60, lambda: local.execute(query).rows) == expected
        JOIN_THREADS.fan_out(lambda: None, 2)
        front = _within(60, lambda: connect(
            "clydesdale", data=data, workers=2, aggstore=False,
            conf=Configuration({KEY_SERVE_RESULT_CACHE: False})))
        try:
            assert _within(60, lambda: front.execute(query).rows) == \
                expected
            victim = front.last_summary["worker"]
            handle = front.frontend._workers[victim]
            pid = handle.pid()
            os.kill(pid, signal.SIGKILL)
            assert _within(60, lambda: front.execute(query).rows) == \
                expected
            assert handle.pid() != pid
            assert _within(60, lambda: front.execute(query).rows) == \
                expected
        except BaseException:
            # A hung request holds its worker's lock: kill the workers so
            # that close() can take it and return.
            for child in multiprocessing.active_children():
                child.kill()
            raise
        finally:
            front.frontend.close()
