"""Tests for the table storage formats: rows, text, CIF, MultiCIF,
B-CIF, RCFile, and their metadata."""

import json

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.mapreduce.job import JobConf
from repro.storage.cif import (
    ColumnInputFormat,
    RowBlock,
    write_cif_table,
)
from repro.storage.multicif import MultiColumnInputFormat
from repro.storage.rcfile import RCFileInputFormat, write_rcfile_table
from repro.storage.rowformat import (
    RowInputFormat,
    read_row_table,
    write_row_table,
)
from repro.storage.tablemeta import TableMeta, data_files, table_bytes
from repro.storage.textformat import (
    TextTableInputFormat,
    read_text_table,
    write_text_table,
)

SCHEMA = Schema([("k", DataType.INT64), ("grp", DataType.STRING),
                 ("v", DataType.FLOAT64)])
ROWS = [(i, f"g{i % 7}", i * 0.25) for i in range(500)]


@pytest.fixture
def fs():
    return MiniDFS(num_nodes=5, placement=CoLocatingPlacementPolicy(),
                   block_size=2048)


def scan(fmt, fs, conf):
    out = []
    for split in fmt.get_splits(fs, conf):
        reader = fmt.get_record_reader(fs, split, conf)
        for key, record in reader:
            out.append((key, tuple(record.values)))
    return out


class TestTableMeta:
    def test_json_roundtrip(self):
        meta = TableMeta(name="t", directory="/t", schema=SCHEMA,
                         format="cif", num_rows=500, row_group_size=100,
                         extras={"num_groups": 5})
        again = TableMeta.from_json(meta.to_json())
        assert again.schema == SCHEMA
        assert again.extras == {"num_groups": 5}

    def test_unknown_format_rejected(self):
        with pytest.raises(StorageError):
            TableMeta(name="t", directory="/t", schema=SCHEMA,
                      format="parquet")

    def test_num_row_groups(self):
        meta = TableMeta(name="t", directory="/t", schema=SCHEMA,
                         format="cif", num_rows=501, row_group_size=100)
        assert meta.num_row_groups() == 6

    def test_load_missing_raises(self, fs):
        with pytest.raises(StorageError):
            TableMeta.load(fs, "/nowhere")

    def test_corrupt_meta_raises(self, fs):
        fs.write_file("/t/.meta", b"not json")
        with pytest.raises(StorageError):
            TableMeta.load(fs, "/t")


class TestRowFormat:
    def test_roundtrip(self, fs):
        write_row_table(fs, "t", "/t", SCHEMA, ROWS, rows_per_part=128)
        assert read_row_table(fs, "/t") == ROWS

    def test_part_files_created(self, fs):
        meta = write_row_table(fs, "t", "/t", SCHEMA, ROWS,
                               rows_per_part=128)
        assert len(data_files(fs, meta)) == 4
        assert table_bytes(fs, meta) > 0

    def test_input_format_global_row_ids(self, fs):
        write_row_table(fs, "t", "/t", SCHEMA, ROWS, rows_per_part=100)
        conf = JobConf("scan").set_input_paths("/t")
        got = sorted(scan(RowInputFormat(), fs, conf))
        assert [k for k, _ in got] == list(range(500))
        assert [v for _, v in got] == ROWS


class TestTextFormat:
    def test_roundtrip(self, fs):
        write_text_table(fs, "t", "/t", SCHEMA, ROWS)
        assert read_text_table(fs, "/t") == ROWS

    def test_input_format_parses_records(self, fs):
        write_text_table(fs, "t", "/t", SCHEMA, ROWS, rows_per_part=200)
        conf = JobConf("scan").set_input_paths("/t")
        got = scan(TextTableInputFormat(), fs, conf)
        assert sorted(v for _, v in got) == sorted(ROWS)


class TestCIF:
    def test_roundtrip_all_columns(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=150)
        conf = JobConf("scan").set_input_paths("/t")
        got = sorted(scan(ColumnInputFormat(), fs, conf))
        assert [v for _, v in got] == ROWS

    def test_one_split_per_row_group(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=150)
        conf = JobConf("scan").set_input_paths("/t")
        splits = ColumnInputFormat().get_splits(fs, conf)
        assert len(splits) == 4  # ceil(500/150)

    def test_projection_reads_fewer_bytes(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=500)
        fmt = ColumnInputFormat()
        full_conf = JobConf("scan").set_input_paths("/t")
        proj_conf = JobConf("scan").set_input_paths("/t")
        ColumnInputFormat.set_projection(proj_conf, ["k"])

        full_reader = fmt.get_record_reader(
            fs, fmt.get_splits(fs, full_conf)[0], full_conf)
        proj_reader = fmt.get_record_reader(
            fs, fmt.get_splits(fs, proj_conf)[0], proj_conf)
        list(full_reader)
        rows = [(k, r) for k, r in proj_reader]
        assert proj_reader.bytes_read < full_reader.bytes_read
        assert rows[0][1].schema.names == ("k",)

    def test_projection_order_respected(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=500)
        conf = JobConf("scan").set_input_paths("/t")
        ColumnInputFormat.set_projection(conf, ["v", "k"])
        got = scan(ColumnInputFormat(), fs, conf)
        key, values = got[0]
        assert values == (0.0, 0)

    def test_projection_unknown_column_raises(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS)
        conf = JobConf("scan").set_input_paths("/t")
        ColumnInputFormat.set_projection(conf, ["zzz"])
        with pytest.raises(Exception):
            ColumnInputFormat().get_splits(fs, conf)

    def test_column_files_colocated(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=100)
        for group in range(5):
            host_sets = []
            for column in SCHEMA.names:
                path = f"/t/rg-{group:05d}/{column}.bin"
                for location in fs.block_locations(path):
                    host_sets.append(tuple(sorted(location.hosts)))
            assert len(set(host_sets)) == 1, \
                f"row group {group} columns not co-located"

    def test_split_hosts_match_data(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=250)
        conf = JobConf("scan").set_input_paths("/t")
        for split in ColumnInputFormat().get_splits(fs, conf):
            assert split.locations()

    def test_global_row_ids(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=120)
        conf = JobConf("scan").set_input_paths("/t")
        ids = sorted(k for k, _ in scan(ColumnInputFormat(), fs, conf))
        assert ids == list(range(500))

    def test_wrong_format_rejected(self, fs):
        write_row_table(fs, "t", "/t", SCHEMA, ROWS)
        conf = JobConf("scan").set_input_paths("/t")
        with pytest.raises(StorageError):
            ColumnInputFormat().get_splits(fs, conf)


class TestBCIF:
    def test_block_iteration_same_data(self, fs):
        # 500 rows at 200 per group: the last group is short (100 rows).
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=200)
        conf = JobConf("scan").set_input_paths("/t")
        conf.set("cif.block.iteration", True)
        row_conf = JobConf("scan").set_input_paths("/t")
        fmt = ColumnInputFormat()
        splits = fmt.get_splits(fs, conf)
        assert [s.num_rows for s in splits] == [200, 200, 100]
        rows = []
        for split in splits:
            reader = fmt.get_record_reader(fs, split, conf)
            base, block = reader.next()
            assert isinstance(block, RowBlock)
            assert len(block) == split.num_rows
            assert block.base_row == split.base_row == base
            assert reader.next() is None
            by_row = fmt.get_record_reader(fs, split, row_conf)
            assert list(block.iter_rows()) == \
                [tuple(record.values) for _, record in by_row]
            rows.extend(block.iter_rows())
        assert rows == ROWS

    def test_block_column_access(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=500)
        conf = JobConf("scan").set_input_paths("/t")
        conf.set("cif.block.iteration", True)
        fmt = ColumnInputFormat()
        split = fmt.get_splits(fs, conf)[0]
        reader = fmt.get_record_reader(fs, split, conf)
        _, block = reader.next()
        assert block.column("k") == list(range(500))
        assert block.row(3) == ROWS[3]
        # The block hands over the reader's own buffers, not copies.
        for name in ("k", "v"):
            assert np.shares_memory(block.column(name).data,
                                    reader._columns[name].data)
        with pytest.raises(StorageError):
            block.column("nope")

    def test_ragged_rowblock_rejected(self):
        with pytest.raises(StorageError):
            RowBlock(SCHEMA.project(["k", "v"]), 0,
                     {"k": [1, 2], "v": [1.0]})


class TestMultiCIF:
    def test_unpacks_to_readers(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=100)
        conf = JobConf("scan").set_input_paths("/t")
        fmt = MultiColumnInputFormat()
        splits = fmt.get_splits(fs, conf)
        total_readers = 0
        rows = []
        for split in splits:
            reader = fmt.get_record_reader(fs, split, conf)
            readers = reader.get_multiple_readers()
            total_readers += len(readers)
            for sub in readers:
                rows.extend(tuple(v.values) for _, v in sub)
        assert total_readers == 5  # one per row group
        assert sorted(rows) == ROWS

    def test_sequential_facade(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=100)
        conf = JobConf("scan").set_input_paths("/t")
        fmt = MultiColumnInputFormat()
        rows = [v for _, v in scan(fmt, fs, conf)]
        assert sorted(rows) == ROWS

    def test_packing_cap(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=50)
        conf = JobConf("scan").set_input_paths("/t")
        conf.set("multicif.splits.per.multisplit", 2)
        splits = MultiColumnInputFormat().get_splits(fs, conf)
        assert all(len(s.splits) <= 2 for s in splits)

    def test_bytes_read_aggregates(self, fs):
        write_cif_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=100)
        conf = JobConf("scan").set_input_paths("/t")
        fmt = MultiColumnInputFormat()
        split = fmt.get_splits(fs, conf)[0]
        reader = fmt.get_record_reader(fs, split, conf)
        list(reader)
        assert reader.bytes_read == sum(
            r.bytes_read for r in reader.get_multiple_readers())


class TestRCFile:
    def test_roundtrip(self, fs):
        write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS,
                           row_group_size=120)
        conf = JobConf("scan").set_input_paths("/t")
        got = sorted(scan(RCFileInputFormat(), fs, conf))
        assert [v for _, v in got] == ROWS

    def test_projection_skips_section_io(self, fs):
        write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS,
                           row_group_size=500)
        fmt = RCFileInputFormat()
        conf_full = JobConf("s").set_input_paths("/t")
        conf_proj = JobConf("s").set_input_paths("/t")
        RCFileInputFormat.set_projection(conf_proj, ["grp"])
        split = fmt.get_splits(fs, conf_full)[0]
        full = fmt.get_record_reader(fs, split, conf_full)
        proj = fmt.get_record_reader(fs, split, conf_proj)
        list(full)
        list(proj)
        assert proj.bytes_read < full.bytes_read

    def test_values_retyped_from_text(self, fs):
        write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS, row_group_size=50)
        conf = JobConf("s").set_input_paths("/t")
        fmt = RCFileInputFormat()
        _, record = fmt.get_record_reader(
            fs, fmt.get_splits(fs, conf)[0], conf).next()
        assert isinstance(record["k"], int)
        assert isinstance(record["v"], float)
        assert isinstance(record["grp"], str)

    def test_groups_per_file_rollover(self, fs):
        meta = write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS,
                                  row_group_size=50, groups_per_file=3)
        files = {g["file"] for g in meta.extras["groups"]}
        assert len(files) == 4  # 10 groups / 3 per file

    def test_row_group_offsets_consistent(self, fs):
        meta = write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS,
                                  row_group_size=100)
        assert sum(g["row_count"] for g in meta.extras["groups"]) == 500
        for group in meta.extras["groups"]:
            assert group["offset"] + group["length"] <= \
                fs.file_length(group["file"])

    def test_wrong_format_rejected(self, fs):
        write_row_table(fs, "t", "/t", SCHEMA, ROWS)
        conf = JobConf("s").set_input_paths("/t")
        with pytest.raises(StorageError):
            RCFileInputFormat().get_splits(fs, conf)

    def test_meta_projection_validation(self, fs):
        write_rcfile_table(fs, "t", "/t", SCHEMA, ROWS)
        conf = JobConf("s").set_input_paths("/t")
        conf.set("rcfile.columns", json.dumps(["bogus"]))
        fmt = RCFileInputFormat()
        splits = fmt.get_splits(fs, conf)
        with pytest.raises(Exception):
            fmt.get_record_reader(fs, splits[0], conf)
