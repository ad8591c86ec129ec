"""Roll-in / roll-out tests (paper sections 2 and 8): appending and
retiring fact data without rewriting the table, with queries staying
correct throughout — plus the Llama cost-comparison model."""

import dataclasses

import pytest

from repro.api import connect
from repro.common.errors import StorageError, ValidationError
from repro.common.units import GB
from repro.core.engine import ClydesdaleEngine
from repro.core.rollin import (
    append_fact_rows,
    compare_rollin_cost,
    roll_out_oldest,
)
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries
from repro.ssb.schema import SCHEMAS
from repro.storage.cif import group_descriptors


@pytest.fixture
def engine():
    data = SSBGenerator(scale_factor=0.002, seed=21).generate()
    return ClydesdaleEngine.with_ssb_data(data=data, num_nodes=4,
                                          row_group_size=2_000)


def fresh_batch(engine, count=3_000, seed=77):
    """Extra fact rows referencing the same dimensions."""
    gen = SSBGenerator(scale_factor=count / 6_000_000, seed=seed)
    date_keys = [row[0] for row in engine.data.date]
    return list(gen.iter_lineorder(
        len(engine.data.customer), len(engine.data.supplier),
        len(engine.data.part), date_keys))


class TestRollIn:
    def test_appends_rows_and_groups(self, engine):
        meta = engine.catalog.meta("lineorder")
        before_rows = meta.num_rows
        before_groups = len(group_descriptors(meta))
        batch = fresh_batch(engine)
        append_fact_rows(engine.fs, meta, batch)
        assert meta.num_rows == before_rows + len(batch)
        assert len(group_descriptors(meta)) > before_groups

    def test_existing_groups_untouched(self, engine):
        """The Clydesdale claim: roll-in writes only new files."""
        meta = engine.catalog.meta("lineorder")
        before = {path: engine.fs.file_length(path)
                  for path in engine.fs.list_dir(meta.directory)
                  if not path.endswith(".meta")}
        append_fact_rows(engine.fs, meta, fresh_batch(engine))
        for path, length in before.items():
            assert engine.fs.file_length(path) == length

    def test_queries_see_rolled_in_data(self, engine):
        query = ssb_queries()["Q2.1"]
        batch = fresh_batch(engine)
        append_fact_rows(engine.fs, engine.catalog.meta("lineorder"),
                         batch)
        got = Session(engine).execute(query)
        reference = ReferenceEngine(
            SCHEMAS, {**engine.data.tables(),
                      "lineorder": engine.data.lineorder + batch})
        assert got.rows == reference.execute(query).rows

    def test_empty_batch_noop(self, engine):
        meta = engine.catalog.meta("lineorder")
        before = meta.num_rows
        append_fact_rows(engine.fs, meta, [])
        assert meta.num_rows == before

    def test_rejects_non_cif(self, engine):
        with pytest.raises(StorageError):
            append_fact_rows(engine.fs, engine.catalog.meta("customer"),
                             [(1,)])


class TestRollOut:
    def test_removes_oldest_groups(self, engine):
        meta = engine.catalog.meta("lineorder")
        groups = group_descriptors(meta)
        expected_removed = sum(g["rows"] for g in groups[:2])
        _, removed = roll_out_oldest(engine.fs, meta, 2)
        assert removed == expected_removed
        assert len(group_descriptors(meta)) == len(groups) - 2

    def test_files_deleted(self, engine):
        meta = engine.catalog.meta("lineorder")
        first = group_descriptors(meta)[0]["id"]
        roll_out_oldest(engine.fs, meta, 1)
        assert not engine.fs.exists(
            f"{meta.directory}/rg-{first:05d}/lo_orderkey.bin")

    def test_queries_after_roll_out(self, engine):
        meta = engine.catalog.meta("lineorder")
        groups = group_descriptors(meta)
        dropped = sum(g["rows"] for g in groups[:1])
        roll_out_oldest(engine.fs, meta, 1)
        query = ssb_queries()["Q2.1"]
        got = Session(engine).execute(query)
        surviving = engine.data.lineorder[dropped:]
        reference = ReferenceEngine(
            SCHEMAS, {**engine.data.tables(), "lineorder": surviving})
        assert got.rows == reference.execute(query).rows

    def test_rolling_window(self, engine):
        """Roll out the oldest batch while rolling in a new one — the
        warehouse maintenance cycle."""
        meta = engine.catalog.meta("lineorder")
        groups_before = group_descriptors(meta)
        dropped = sum(g["rows"] for g in groups_before[:2])
        roll_out_oldest(engine.fs, meta, 2)
        batch = fresh_batch(engine, count=2_500)
        append_fact_rows(engine.fs, meta, batch)
        query = ssb_queries()["Q3.1"]
        surviving = engine.data.lineorder[dropped:] + batch
        reference = ReferenceEngine(
            SCHEMAS, {**engine.data.tables(), "lineorder": surviving})
        assert Session(engine).execute(query).rows == \
            reference.execute(query).rows
        assert meta.num_rows == len(surviving)

    def test_bounds_checked(self, engine):
        meta = engine.catalog.meta("lineorder")
        with pytest.raises(StorageError):
            roll_out_oldest(engine.fs, meta, 999)
        with pytest.raises(StorageError):
            roll_out_oldest(engine.fs, meta, -1)


class TestSessionRollInAndOut:
    """``Session.roll_in``/``roll_out``: the repeat of a query answers
    from the new fact rows, not from aggregates materialized over the
    old ones, and still reuses every cached hash table."""

    QUERY = ssb_queries()["Q2.1"]

    @pytest.fixture(scope="class")
    def data(self):
        return SSBGenerator(scale_factor=0.002, seed=42).generate()

    def _expected(self, data, lineorder):
        reference = connect("reference", data=dataclasses.replace(
            data, lineorder=lineorder))
        return reference.execute(self.QUERY).rows

    def test_repeat_after_roll_in(self, data):
        session = connect("clydesdale", data=data)
        before = session.execute(self.QUERY).rows
        batch = fresh_batch(session.engine, count=2_000)
        session.roll_in("lineorder", batch)
        rows = session.execute(self.QUERY).rows
        assert rows == self._expected(data, data.lineorder + batch)
        assert rows != before
        assert session.last_provenance.source == "executed"
        # Every table cached before is reused; only the node that holds
        # the new row group builds its own.
        assert session.stats().execution.ht_cache_hits == \
            len(self.QUERY.joins)
        assert session.cache.stats().invalidations == 0

    def test_repeat_after_roll_out(self, data):
        session = connect("clydesdale", data=data)
        batch = fresh_batch(session.engine, count=2_000)
        session.roll_in("lineorder", batch)
        session.execute(self.QUERY)
        removed = session.roll_out("lineorder", 1)
        assert removed == len(data.lineorder)
        rows = session.execute(self.QUERY).rows
        assert rows == self._expected(data, batch)
        assert session.last_provenance.source == "executed"
        assert session.stats().execution.ht_cache_misses == 0

    def test_reload_catalog_afterwards_invalidates_both_stores(self, data):
        session = connect("clydesdale", data=data)
        session.execute(self.QUERY)
        session.roll_in("lineorder", fresh_batch(session.engine))
        session.execute(self.QUERY)
        cache = session.cache.stats().invalidations
        aggstore = session.aggstore.stats().invalidations
        session.reload_catalog(data)
        assert session.cache.stats().invalidations == cache + 1
        assert session.aggstore.stats().invalidations == aggstore + 1
        rows = session.execute(self.QUERY).rows
        assert rows == self._expected(data, data.lineorder)
        assert session.last_provenance.source == "executed"
        assert session.stats().execution.ht_cache_misses > 0

    def test_stamped_reload_after_roll_in_drops_aggregates(self, data):
        # The roll-in advances the AggStore's generation past the hash
        # table cache's, so the reload's stamp is new to the cache but a
        # duplicate to the AggStore; the aggregates over the old rows
        # must go anyway.
        session = connect("clydesdale", data=data)
        session.roll_in("lineorder", fresh_batch(session.engine))
        session.execute(self.QUERY)
        lineorder = data.lineorder[::2]
        session.reload_catalog(
            dataclasses.replace(data, lineorder=lineorder), generation=1)
        rows = session.execute(self.QUERY).rows
        assert rows == self._expected(data, lineorder)
        assert session.last_provenance.source == "executed"

    @pytest.mark.parametrize("backend", ["hive", "reference"])
    def test_other_backends_refuse(self, data, backend):
        session = connect(backend, data=data)
        with pytest.raises(ValidationError, match="clydesdale"):
            session.roll_in("lineorder", data.lineorder[:10])
        with pytest.raises(ValidationError, match="clydesdale"):
            session.roll_out("lineorder", 1)


class TestLlamaComparison:
    def test_clydesdale_cost_independent_of_table_size(self):
        small = compare_rollin_cost(10 * GB, 1 * GB)
        large = compare_rollin_cost(300 * GB, 1 * GB)
        assert small.clydesdale_seconds == large.clydesdale_seconds

    def test_llama_cost_grows_with_table_size(self):
        small = compare_rollin_cost(10 * GB, 1 * GB)
        large = compare_rollin_cost(300 * GB, 1 * GB)
        assert large.llama_seconds > 10 * small.llama_seconds

    def test_llama_overhead_prohibitive_at_scale(self):
        """The paper's argument: at warehouse scale, merging sorted
        projections on every roll-in is prohibitive."""
        cost = compare_rollin_cost(334 * GB, 334 * GB / 365,
                                   num_sorted_projections=4)
        assert cost.llama_overhead > 50

    def test_more_projections_cost_more(self):
        two = compare_rollin_cost(100 * GB, 1 * GB,
                                  num_sorted_projections=2)
        four = compare_rollin_cost(100 * GB, 1 * GB,
                                   num_sorted_projections=4)
        assert four.llama_seconds > two.llama_seconds

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            compare_rollin_cost(-1, 1)
