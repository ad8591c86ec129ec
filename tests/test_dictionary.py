"""Tests for dictionary-encoded CIF string columns."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.storage import serde
from repro.storage.dictionary import (
    decode_cif_column,
    decode_dictionary,
    encode_cif_column,
    encode_dictionary,
    is_dictionary_encoded,
)

LOW_CARDINALITY = ["ASIA", "EUROPE", "ASIA", "AMERICA", "ASIA",
                   "EUROPE"] * 100


class TestDictionaryCodec:
    def test_roundtrip(self):
        assert decode_dictionary(
            encode_dictionary(LOW_CARDINALITY)) == LOW_CARDINALITY

    def test_empty(self):
        assert decode_dictionary(encode_dictionary([])) == []

    def test_single_value(self):
        values = ["x"] * 50
        assert decode_dictionary(encode_dictionary(values)) == values

    def test_code_width_escalation(self):
        # >255 distinct values forces 2-byte codes.
        values = [f"v{i}" for i in range(300)]
        data = encode_dictionary(values)
        assert data[8] == 2  # code width byte
        assert decode_dictionary(data) == values

    def test_rejects_non_string(self):
        with pytest.raises(StorageError):
            encode_dictionary(["a", 5])

    def test_truncation_detected(self):
        data = encode_dictionary(LOW_CARDINALITY)
        with pytest.raises(StorageError):
            decode_dictionary(data[:-3])

    def test_smaller_than_plain_for_low_cardinality(self):
        plain = serde.encode_column(DataType.STRING, LOW_CARDINALITY)
        encoded = encode_dictionary(LOW_CARDINALITY)
        assert len(encoded) < len(plain) / 3

    @given(st.lists(st.sampled_from(["a", "bb", "ccc", "dddd", ""]),
                    max_size=300))
    def test_roundtrip_property(self, values):
        assert decode_dictionary(encode_dictionary(values)) == values


class TestCifColumnMarkers:
    def test_low_cardinality_gets_dictionary(self):
        data = encode_cif_column(DataType.STRING, LOW_CARDINALITY)
        assert is_dictionary_encoded(data)
        assert decode_cif_column(DataType.STRING, data) == LOW_CARDINALITY

    def test_high_cardinality_stays_plain(self):
        unique = [f"value-{i:08d}" for i in range(500)]
        data = encode_cif_column(DataType.STRING, unique)
        assert not is_dictionary_encoded(data)
        assert decode_cif_column(DataType.STRING, data) == unique

    def test_dictionary_disabled(self):
        data = encode_cif_column(DataType.STRING, LOW_CARDINALITY,
                                 dictionary=False)
        assert not is_dictionary_encoded(data)

    def test_numeric_columns_always_plain(self):
        values = [7] * 100
        data = encode_cif_column(DataType.INT32, values)
        assert not is_dictionary_encoded(data)
        assert decode_cif_column(DataType.INT32, data) == values

    def test_unknown_marker_rejected(self):
        with pytest.raises(StorageError):
            decode_cif_column(DataType.STRING, b"\x7fgarbage")

    def test_empty_file_rejected(self):
        with pytest.raises(StorageError):
            decode_cif_column(DataType.STRING, b"")

    def test_dict_marker_on_numeric_rejected(self):
        payload = b"\x01" + encode_dictionary(["x"])
        with pytest.raises(StorageError):
            decode_cif_column(DataType.INT32, payload)


class TestCifIntegration:
    SCHEMA = Schema([("k", DataType.INT32),
                     ("region", DataType.STRING),
                     ("note", DataType.STRING)])

    def make_rows(self):
        regions = ["ASIA", "EUROPE", "AMERICA"]
        return [(i, regions[i % 3], f"unique-note-{i:06d}")
                for i in range(600)]

    def write(self, dictionary):
        from repro.hdfs.filesystem import MiniDFS
        from repro.storage.cif import write_cif_table
        fs = MiniDFS(num_nodes=3)
        meta = write_cif_table(fs, "t", "/t", self.SCHEMA,
                               self.make_rows(), row_group_size=200,
                               dictionary=dictionary)
        return fs, meta

    def scan(self, fs):
        from repro.mapreduce.job import JobConf
        from repro.storage.cif import ColumnInputFormat
        conf = JobConf("scan").set_input_paths("/t")
        fmt = ColumnInputFormat()
        rows = []
        nbytes = 0
        for split in fmt.get_splits(fs, conf):
            reader = fmt.get_record_reader(fs, split, conf)
            rows.extend(tuple(r.values) for _, r in reader)
            nbytes += reader.bytes_read
        return sorted(rows), nbytes

    def test_roundtrip_with_dictionary(self):
        fs, _ = self.write(dictionary=True)
        rows, _ = self.scan(fs)
        assert rows == sorted(self.make_rows())

    def test_dictionary_shrinks_low_cardinality_scan(self):
        fs_dict, _ = self.write(dictionary=True)
        fs_plain, _ = self.write(dictionary=False)
        _, dict_bytes = self.scan(fs_dict)
        _, plain_bytes = self.scan(fs_plain)
        assert dict_bytes < plain_bytes

    def test_high_cardinality_column_unchanged(self):
        """The 'note' column is unique per row: both configurations must
        store it plain, so the saving comes only from 'region'."""
        from repro.storage.cif import column_path
        fs_dict, _ = self.write(dictionary=True)
        fs_plain, _ = self.write(dictionary=False)
        note_dict = fs_dict.file_length(column_path("/t", 0, "note"))
        note_plain = fs_plain.file_length(column_path("/t", 0, "note"))
        assert note_dict == note_plain
        region_dict = fs_dict.file_length(column_path("/t", 0, "region"))
        region_plain = fs_plain.file_length(
            column_path("/t", 0, "region"))
        assert region_dict < region_plain / 2

    def test_query_results_encoding_invariant(self, ssb_data, queries,
                                              reference):
        """Clydesdale answers are identical with and without dictionary
        encoding of the fact table."""
        from repro.core.engine import ClydesdaleEngine
        from repro.hdfs.filesystem import MiniDFS
        from repro.hdfs.placement import CoLocatingPlacementPolicy
        from repro.serve.session import Session
        from repro.ssb.loader import load_for_clydesdale
        from repro.storage.cif import write_cif_table
        from repro.ssb.schema import SCHEMAS

        fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
        catalog = load_for_clydesdale(fs, ssb_data)
        # Rewrite the fact table without dictionary encoding.
        fs.delete(catalog.meta("lineorder").directory, recursive=True)
        catalog.tables["lineorder"] = write_cif_table(
            fs, "lineorder", catalog.meta("lineorder").directory,
            SCHEMAS["lineorder"], ssb_data.lineorder,
            row_group_size=25_000, dictionary=False)
        session = Session(ClydesdaleEngine(fs, catalog))
        query = queries["Q2.1"]
        assert session.execute(query).rows == \
            reference.execute(query).rows
