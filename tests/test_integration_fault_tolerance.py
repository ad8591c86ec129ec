"""Fault-tolerance integration: Clydesdale inherits HDFS's resilience
(the paper's core argument for keeping the distributed filesystem)."""

import pytest

from repro.common.config import Configuration
from repro.common.keys import (
    KEY_SERVE_AGGSTORE,
    KEY_SERVE_RESULT_CACHE,
    KEY_SERVE_WORKER_RESPAWN,
    KEY_SERVE_WORKERS,
)
from repro.core.engine import ClydesdaleEngine
from repro.hdfs.faults import FaultInjector
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.loader import dim_cache_name, refresh_dim_cache
from repro.ssb.queries import ssb_queries


@pytest.fixture
def engine():
    data = SSBGenerator(scale_factor=0.002, seed=5).generate()
    return ClydesdaleEngine.with_ssb_data(data=data, num_nodes=6,
                                          row_group_size=2_000)


def test_query_survives_node_failure(engine):
    query = ssb_queries()["Q2.1"]
    baseline = Session(engine).execute(query)
    injector = FaultInjector(engine.fs)
    injector.kill_random_node()
    after = Session(engine).execute(query)
    assert after.rows == baseline.rows


def test_query_survives_failure_plus_reheal(engine):
    query = ssb_queries()["Q3.1"]
    baseline = Session(engine).execute(query)
    injector = FaultInjector(engine.fs)
    injector.kill_random_node()
    injector.heal()
    # Replication restored: a second failure is survivable too.
    injector.kill_random_node()
    after = Session(engine).execute(query)
    assert after.rows == baseline.rows


def test_recovered_node_refetches_dimension_cache(engine):
    query = ssb_queries()["Q1.1"]
    baseline = Session(engine).execute(query)
    injector = FaultInjector(engine.fs)
    victim = injector.kill_random_node()
    injector.heal()
    injector.recover_node(victim)
    # The recovered node's local disk is blank: the dimension cache is
    # repopulated from the HDFS master copy (paper section 4).
    assert not engine.fs.datanode(victim).scratch_has(
        dim_cache_name("date"))
    refresh_dim_cache(engine.fs, engine.catalog, victim)
    assert engine.fs.datanode(victim).scratch_has(dim_cache_name("date"))
    after = Session(engine).execute(query)
    assert after.rows == baseline.rows


def test_colocation_keeps_scheduling_local_after_heal(engine):
    query = ssb_queries()["Q2.1"]
    Session(engine).execute(query)
    injector = FaultInjector(engine.fs)
    injector.kill_random_node()
    injector.heal()
    Session(engine).execute(query)
    stats = engine.last_stats
    assert stats.job.plan.data_local_fraction >= 0.5


# --------------------------------------------------------------------- #
# Scale-out serving faults: worker processes killed or poisoned
# mid-query. The frontend must retry on a healthy worker, keep every
# admission counter exact, and never leak a stale cache generation
# through a respawn.
# --------------------------------------------------------------------- #


@pytest.fixture
def frontend_data():
    return SSBGenerator(scale_factor=0.002, seed=5).generate()


def _routed_worker(front, query):
    from repro.serve.routing import query_shape
    return front._router.route(query_shape(query))[0]


def test_worker_crash_mid_query_retries_on_healthy_worker(frontend_data):
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 2,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("crashy")
        query = ssb_queries()["Q2.1"]
        baseline = handle.execute(query)
        victim = _routed_worker(front, query)
        front._workers[victim].post(("poison", "crash"))
        survived = handle.execute(query)
        assert survived.rows == baseline.rows
        summary = handle.last_summary
        assert summary["attempts"] == 2
        stats = front.stats()
        assert stats.retries == 1
        assert stats.failed == 0 and stats.in_flight == 0
        # The session keeps working after the fault.
        assert handle.execute(query).rows == baseline.rows
    finally:
        front.close()


def test_single_worker_crash_respawns_and_recovers(frontend_data):
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 1,
                         KEY_SERVE_WORKER_RESPAWN: True,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("solo")
        query = ssb_queries()["Q1.1"]
        baseline = handle.execute(query)
        pid_before = front._workers[0].pid()
        front._workers[0].post(("poison", "crash"))
        after = handle.execute(query)
        assert after.rows == baseline.rows
        assert front._workers[0].pid() != pid_before
        assert front.stats().retries == 1
    finally:
        front.close()


def test_crash_without_respawn_routes_to_survivor(frontend_data):
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 2,
                         KEY_SERVE_WORKER_RESPAWN: False,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("survivor")
        query = ssb_queries()["Q3.2"]
        handle.execute(query)
        victim = _routed_worker(front, query)
        front._workers[victim].post(("poison", "crash"))
        handle.execute(query)
        assert handle.last_summary["worker"] != victim
        infos = {info["worker"]: info for info in front.worker_stats()}
        assert not infos[victim]["alive"]
        assert victim not in front._router.workers()
    finally:
        front.close()


def test_poisoned_failure_propagates_and_accounts(frontend_data):
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 2,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("poisoned")
        query = ssb_queries()["Q1.2"]
        handle.execute(query)
        victim = _routed_worker(front, query)
        front._workers[victim].post(("poison", "fail"))
        # An engine-level failure is not a crash: it propagates to the
        # caller (no silent retry) and the worker stays in rotation.
        with pytest.raises(RuntimeError, match="poisoned"):
            handle.execute(query)
        stats = front.stats()
        assert stats.failed == 1 and stats.retries == 0
        assert stats.in_flight == 0 and handle.in_flight == 0
        assert front._workers[victim].alive()
        assert handle.execute(query).rows is not None
    finally:
        front.close()


def test_admission_accounting_exact_under_faults(frontend_data):
    from repro.common.errors import AdmissionError
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 2,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("books")
        query = ssb_queries()["Q1.1"]
        completed = failed = rejected = 0
        for i in range(6):
            if i == 2:
                front._workers[_routed_worker(front, query)].post(
                    ("poison", "fail"))
            if i == 4:
                front._workers[_routed_worker(front, query)].post(
                    ("poison", "crash"))
            try:
                handle.execute(query)
                completed += 1
            except AdmissionError:
                rejected += 1
            except RuntimeError:
                failed += 1
        stats = front.stats()
        assert stats.submitted == 6
        assert stats.completed == completed
        assert stats.failed == failed == 1
        assert stats.rejected == rejected == 0
        assert stats.submitted == \
            stats.completed + stats.failed + stats.rejected
        assert stats.in_flight == 0 and handle.in_flight == 0
    finally:
        front.close()


def test_stale_crash_report_spares_respawned_worker(frontend_data):
    # Two threads can observe the same crash; the slower report must
    # not condemn the freshly respawned worker (recovery is
    # identity-aware via the crashed pid).
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 1,
                         KEY_SERVE_WORKER_RESPAWN: True,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("dup")
        query = ssb_queries()["Q1.1"]
        handle.execute(query)
        crashed_pid = front._workers[0].pid()
        front._workers[0].post(("poison", "crash"))
        handle.execute(query)          # first observer recovers
        respawned_pid = front._workers[0].pid()
        assert respawned_pid != crashed_pid
        pins = front.router_snapshot()
        front._recover_worker(0, crashed_pid)   # stale second report
        assert front._workers[0].alive()
        assert front._workers[0].pid() == respawned_pid
        assert front.router_snapshot() == pins
    finally:
        front.close()


def test_reload_racing_respawn_is_replayed(frontend_data, monkeypatch):
    # A reload_catalog that commits while a worker is down has its
    # broadcast dropped; if it lands between recovery's catalog
    # snapshot and the respawn, recovery must notice the generation
    # advanced and replay the reload — otherwise the fresh worker
    # serves the old catalog until the next reload.
    from repro.reference.engine import ReferenceEngine
    from repro.serve.frontend import Frontend
    from repro.serve.worker import WorkerHandle
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 1,
                         KEY_SERVE_WORKER_RESPAWN: True,
                         KEY_SERVE_RESULT_CACHE: False,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("race")
        query = ssb_queries()["Q1.1"]
        handle.execute(query)
        data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
        real = WorkerHandle.ensure_respawned

        def racing(self, data, gen):
            # Commit a reload inside the recovery window: after the
            # frontend snapshotted (data, generation), before the
            # worker is back up — the broadcast finds it dead.
            if front.generation == 0:
                front.reload_catalog(data2)
            return real(self, data, gen)

        monkeypatch.setattr(WorkerHandle, "ensure_respawned", racing)
        front._workers[0].post(("poison", "crash"))
        after = handle.execute(query)
        assert after.rows == ReferenceEngine.from_ssb(
            data2).execute(query).rows
        info, _ = front._workers[0].request(("stats",))
        assert info["generation"] == front.generation == 1
    finally:
        front.close()


def test_no_generation_leak_through_respawn(frontend_data):
    # A worker crash after a catalog reload must not resurrect the
    # pre-reload cache generation: the respawned shard is built over
    # the *current* catalog and stamped with the current generation.
    from repro.serve.frontend import Frontend
    front = Frontend(backend="clydesdale", data=frontend_data,
                     conf=Configuration({
                         KEY_SERVE_WORKERS: 2,
                         KEY_SERVE_AGGSTORE: False}))
    try:
        handle = front.session("genleak")
        query = ssb_queries()["Q1.1"]
        handle.execute(query)
        data2 = SSBGenerator(scale_factor=0.002, seed=11).generate()
        gen = front.reload_catalog(data2)
        victim = _routed_worker(front, query)
        front._workers[victim].post(("poison", "crash"))
        after = handle.execute(query)
        from repro.reference.engine import ReferenceEngine
        assert after.rows == ReferenceEngine.from_ssb(
            data2).execute(query).rows
        for info in front.worker_stats():
            assert info["alive"]
            assert info["generation"] == gen == front.generation
    finally:
        front.close()
