"""Zone maps: per-row-group min/max stats and split pruning.

Covers the conservative ``can_match`` interval tests, the split
planner's pruning behavior (including its must-never-be-wrong edge
cases: single-row groups, predicates on columns without stats, stale
metadata without zone maps, every group pruned), roll-in producing
stats, and end-to-end pruning through the engine.
"""

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType
from repro.core.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    TruePredicate,
)
from repro.core.rollin import append_fact_rows
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.mapreduce.job import JobConf
from repro.serve.session import Session
from repro.storage.cif import ColumnInputFormat, write_cif_table
from repro.storage.tablemeta import TableMeta

SCHEMA = Schema([("k", DataType.INT64), ("grp", DataType.STRING),
                 ("v", DataType.FLOAT64)])
# k ascends 0..499, so each 100-row group covers a disjoint k range.
ROWS = [(i, f"g{i % 7}", i * 0.25) for i in range(500)]


@pytest.fixture
def fs():
    return MiniDFS(num_nodes=5, placement=CoLocatingPlacementPolicy(),
                   block_size=2048)


@pytest.fixture
def table(fs):
    return write_cif_table(fs, "t", "/tables/t", SCHEMA, ROWS,
                           row_group_size=100)


def scan_rows(fmt, fs, conf):
    out = []
    for split in fmt.get_splits(fs, conf):
        reader = fmt.get_record_reader(fs, split, conf)
        for key, record in reader:
            out.append((key, tuple(record.values)))
    return out


class TestCanMatch:
    """The interval tests behind pruning, one operator at a time.

    ``can_match(ranges) == False`` is a *proof* that no row matches, so
    every doubtful case must answer True.
    """

    RANGES = {"k": (100, 199)}

    @pytest.mark.parametrize("predicate,expected", [
        (Comparison("k", "=", 150), True),
        (Comparison("k", "=", 500), False),
        (Comparison("k", "!=", 150), True),
        (Comparison("k", "<", 100), False),
        (Comparison("k", "<", 101), True),
        (Comparison("k", "<=", 100), True),
        (Comparison("k", "<=", 99), False),
        (Comparison("k", ">", 199), False),
        (Comparison("k", ">", 198), True),
        (Comparison("k", ">=", 199), True),
        (Comparison("k", ">=", 200), False),
        (Between("k", 150, 160), True),
        (Between("k", 199, 300), True),
        (Between("k", 200, 300), False),
        (InList("k", [1, 2, 150]), True),
        (InList("k", [1, 2, 3]), False),
        (TruePredicate(), True),
    ])
    def test_leaf_operators(self, predicate, expected):
        assert predicate.can_match(self.RANGES) is expected

    def test_connectives(self):
        hit = Comparison("k", "=", 150)
        miss = Comparison("k", "=", 500)
        assert And([hit, miss]).can_match(self.RANGES) is False
        assert And([hit, hit]).can_match(self.RANGES) is True
        assert Or([miss, miss]).can_match(self.RANGES) is False
        assert Or([miss, hit]).can_match(self.RANGES) is True

    def test_not_never_prunes(self):
        # A group whose whole range satisfies the inner predicate may
        # still hold rows that satisfy NOT of it only if... it can't —
        # but interval logic cannot prove that, so NOT refuses to prune.
        assert Not(Comparison("k", "=", 500)).can_match(self.RANGES)
        assert Not(Comparison("k", ">=", 0)).can_match(self.RANGES)

    def test_missing_column_never_prunes(self):
        assert Comparison("other", "=", -1).can_match(self.RANGES)
        assert Between("other", -5, -1).can_match(self.RANGES)
        assert InList("other", [-1]).can_match(self.RANGES)

    def test_incomparable_types_never_prune(self):
        ranges = {"k": ("aaa", "zzz")}
        assert Comparison("k", "<", 5).can_match(ranges)
        assert Between("k", 1, 5).can_match(ranges)
        assert InList("k", [1, 2]).can_match(ranges)


class TestWriterStats:
    def test_groups_carry_min_max(self, fs, table):
        groups = table.extras["groups"]
        assert len(groups) == 5
        for index, group in enumerate(groups):
            lo, hi = group["zonemap"]["k"]
            assert (lo, hi) == (index * 100, index * 100 + 99)
        assert groups[0]["zonemap"]["grp"] == ["g0", "g6"]

    def test_rollin_groups_carry_stats_too(self, fs, table):
        extra = [(i, "roll", float(i)) for i in range(1000, 1050)]
        meta = append_fact_rows(fs, table, extra)
        new_group = meta.extras["groups"][-1]
        assert new_group["zonemap"]["k"] == [1000, 1049]
        assert new_group["zonemap"]["grp"] == ["roll", "roll"]


class TestSplitPruning:
    def _conf(self, predicate=None):
        conf = JobConf("scan").set_input_paths("/tables/t")
        if predicate is not None:
            ColumnInputFormat.set_zonemap_filter(conf, predicate)
        return conf

    def test_no_filter_keeps_everything(self, fs, table):
        fmt = ColumnInputFormat()
        splits = fmt.get_splits(fs, self._conf())
        assert len(splits) == 5
        assert fmt.last_prune_report == {"rowgroups_pruned": 0,
                                         "rows_skipped": 0}

    def test_range_filter_prunes_disjoint_groups(self, fs, table):
        fmt = ColumnInputFormat()
        conf = self._conf(Between("k", 150, 249))
        rows = scan_rows(fmt, fs, conf)
        assert fmt.last_prune_report == {"rowgroups_pruned": 3,
                                         "rows_skipped": 300}
        # The two surviving groups hold rows 100..299; global row ids
        # must be unchanged by the pruning.
        assert [key for key, _ in rows] == list(range(100, 300))

    def test_pruning_is_superset_of_true_matches(self, fs, table):
        """Kept splits contain every actually-matching row."""
        fmt = ColumnInputFormat()
        predicate = Comparison("k", ">=", 437)
        rows = scan_rows(fmt, fs, self._conf(predicate))
        surviving_keys = {row[0] for _, row in rows}
        expected = {k for k, _, _ in ROWS if k >= 437}
        assert expected <= surviving_keys

    def test_column_without_stats_never_prunes(self, fs, table):
        # Strip the "v" stats from every descriptor: a filter on v must
        # then keep all groups.
        meta = TableMeta.load(fs, "/tables/t")
        for group in meta.extras["groups"]:
            del group["zonemap"]["v"]
        meta.save(fs)
        fmt = ColumnInputFormat()
        splits = fmt.get_splits(fs, self._conf(Comparison("v", "<", -1)))
        assert len(splits) == 5
        assert fmt.last_prune_report["rowgroups_pruned"] == 0

    def test_stale_meta_without_zonemaps_never_prunes(self, fs, table):
        """Tables written before zone maps existed degrade gracefully."""
        meta = TableMeta.load(fs, "/tables/t")
        for group in meta.extras["groups"]:
            del group["zonemap"]
        meta.save(fs)
        fmt = ColumnInputFormat()
        conf = self._conf(Between("k", 150, 249))
        rows = scan_rows(fmt, fs, conf)
        assert fmt.last_prune_report["rowgroups_pruned"] == 0
        assert len(rows) == len(ROWS)

    def test_malformed_zonemap_entry_never_prunes(self, fs, table):
        meta = TableMeta.load(fs, "/tables/t")
        for group in meta.extras["groups"]:
            group["zonemap"]["k"] = "not-a-range"
        meta.save(fs)
        fmt = ColumnInputFormat()
        splits = fmt.get_splits(fs, self._conf(Between("k", -10, -1)))
        assert len(splits) == 5

    def test_all_groups_pruned_keeps_one(self, fs, table):
        """The planner may never hand the runtime zero splits; the
        mapper re-filters, so the kept group changes nothing."""
        fmt = ColumnInputFormat()
        conf = self._conf(Comparison("k", ">", 10_000))
        splits = fmt.get_splits(fs, conf)
        assert len(splits) == 1
        assert splits[0].length > 0  # real split, real cost accounting
        assert fmt.last_prune_report == {"rowgroups_pruned": 4,
                                         "rows_skipped": 400}

    def test_single_row_groups(self, fs):
        rows = [(i, f"g{i}", float(i)) for i in range(8)]
        write_cif_table(fs, "tiny", "/tables/tiny", SCHEMA, rows,
                        row_group_size=1)
        fmt = ColumnInputFormat()
        conf = JobConf("scan").set_input_paths("/tables/tiny")
        ColumnInputFormat.set_zonemap_filter(conf, Comparison("k", "=", 5))
        scanned = scan_rows(fmt, fs, conf)
        assert fmt.last_prune_report == {"rowgroups_pruned": 7,
                                         "rows_skipped": 7}
        assert scanned == [(5, (5, "g5", 5.0))]

    def test_pruning_on_rolled_in_groups(self, fs, table):
        extra = [(i, "roll", float(i)) for i in range(1000, 1100)]
        append_fact_rows(fs, table, extra)
        fmt = ColumnInputFormat()
        rows = scan_rows(fmt, fs, self._conf(Comparison("k", ">=", 1000)))
        assert fmt.last_prune_report["rowgroups_pruned"] == 5
        assert [row[0] for _, row in rows] == list(range(1000, 1100))


class TestEndToEndPruning:
    ORDERDATE_INDEX = 5  # lineorder schema position of lo_orderdate

    @pytest.fixture(scope="class")
    def clustered_engine(self):
        from repro.core.engine import ClydesdaleEngine
        from repro.reference.engine import ReferenceEngine
        from repro.ssb.datagen import SSBGenerator
        data = SSBGenerator(scale_factor=0.002, seed=42).generate()
        data.lineorder.sort(key=lambda row: row[self.ORDERDATE_INDEX])
        engine = ClydesdaleEngine.with_ssb_data(data=data,
                                                row_group_size=2000)
        return engine, ReferenceEngine.from_ssb(data)

    def test_selective_query_prunes_and_matches_reference(
            self, clustered_engine):
        from repro.ssb.queries import ssb_queries
        engine, reference = clustered_engine
        query = ssb_queries()["Q1.1"]
        result = Session(engine).execute(query)
        assert result.rows == reference.execute(query).rows
        stats = engine.last_stats
        assert stats.rowgroups_pruned > 0
        assert stats.rows_skipped > 0

    def test_feature_flag_off_disables_pruning(self, clustered_engine):
        from repro.core.planner import ClydesdaleFeatures
        from repro.ssb.queries import ssb_queries
        engine, reference = clustered_engine
        query = ssb_queries()["Q1.1"]
        result = Session(engine, features=ClydesdaleFeatures(
            zone_maps=False)).execute(query)
        assert result.rows == reference.execute(query).rows
        assert engine.last_stats.rowgroups_pruned == 0
        assert engine.last_stats.rows_skipped == 0

    def test_explain_mentions_zone_maps(self, clustered_engine):
        from repro.ssb.queries import ssb_queries
        engine, _ = clustered_engine
        text = engine.explain(ssb_queries()["Q1.1"])
        assert "zone maps" in text
