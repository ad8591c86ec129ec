"""Stateful property tests: random roll-in/roll-out sequences and random
failure/heal sequences must never change query answers (relative to the
reference engine over the logically surviving data)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import ClydesdaleEngine
from repro.core.rollin import append_fact_rows, roll_out_oldest
from repro.hdfs.faults import FaultInjector
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.loader import refresh_dim_cache
from repro.ssb.queries import ssb_queries
from repro.ssb.schema import SCHEMAS
from repro.storage.cif import group_descriptors


def fresh_engine(num_nodes=4, row_group_size=1_500):
    data = SSBGenerator(scale_factor=0.0015, seed=77).generate()
    engine = ClydesdaleEngine.with_ssb_data(
        data=data, num_nodes=num_nodes, row_group_size=row_group_size)
    return engine, data


def make_batch(data, count, seed):
    gen = SSBGenerator(scale_factor=count / 6_000_000, seed=seed)
    date_keys = [row[0] for row in data.date]
    return list(gen.iter_lineorder(
        len(data.customer), len(data.supplier), len(data.part),
        date_keys))


# Operations: ("in", batch_seed) appends ~1.2k rows; ("out",) drops the
# oldest group if more than one remains.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("in"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("out")),
    ),
    min_size=1, max_size=5)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_random_rollin_rollout_sequences(ops):
    engine, data = fresh_engine()
    meta = engine.catalog.meta("lineorder")
    shadow = list(data.lineorder)  # logical surviving rows
    query = ssb_queries()["Q2.1"]

    for op in ops:
        if op[0] == "in":
            batch = make_batch(data, 1_200, seed=500 + op[1])
            append_fact_rows(engine.fs, meta, batch)
            shadow.extend(batch)
        else:
            groups = group_descriptors(meta)
            if len(groups) <= 1:
                continue
            dropped = groups[0]["rows"]
            roll_out_oldest(engine.fs, meta, 1)
            shadow = shadow[dropped:]

    reference = ReferenceEngine(
        SCHEMAS, {**data.tables(), "lineorder": shadow})
    got = Session(engine).execute(query)
    assert got.rows == reference.execute(query).rows
    assert meta.num_rows == len(shadow)


kill_heal = st.lists(
    st.sampled_from(["kill", "heal"]), min_size=1, max_size=5)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=kill_heal, seed=st.integers(min_value=0, max_value=100))
def test_random_failure_sequences_never_corrupt_answers(ops, seed):
    engine, data = fresh_engine(num_nodes=6)
    reference = ReferenceEngine.from_ssb(data)
    query = ssb_queries()["Q1.1"]
    expected = reference.execute(query).rows
    injector = FaultInjector(engine.fs, seed=seed)

    for op in ops:
        dead = 6 - len(engine.fs.live_nodes())
        # Data survives any < replication-factor concurrent failures;
        # with 3 dead un-healed nodes a block may legitimately lose all
        # replicas, so keep concurrent deaths below the factor.
        if op == "kill" and dead < engine.fs.default_replication - 1:
            injector.kill_random_node()
        elif op == "heal":
            injector.heal()
            for node_id in list(injector.killed):
                injector.recover_node(node_id)
                # A recovered node has blank local disks: re-fetch its
                # dimension caches from HDFS (paper section 4).
                refresh_dim_cache(engine.fs, engine.catalog, node_id)
        assert Session(engine).execute(query).rows == expected


def test_rollout_everything_leaves_empty_result():
    engine, data = fresh_engine()
    meta = engine.catalog.meta("lineorder")
    groups = group_descriptors(meta)
    # Keep one group (CIF needs >= 1 row group to scan); roll out the
    # rest and verify against the survivors.
    roll_out_oldest(engine.fs, meta, len(groups) - 1)
    survivors = data.lineorder[-group_descriptors(meta)[0]["rows"]:]
    reference = ReferenceEngine(
        SCHEMAS, {**data.tables(), "lineorder": survivors})
    query = ssb_queries()["Q3.1"]
    assert Session(engine).execute(query).rows == \
        reference.execute(query).rows
