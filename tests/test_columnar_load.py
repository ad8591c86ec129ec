"""What the Clydesdale loader writes, pinned byte for byte, and the CIF
writer's row-arity check (``write_cif_table`` and roll-in)."""

from __future__ import annotations

import hashlib

import pytest

from repro.common.errors import StorageError
from repro.core.rollin import append_fact_rows
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.ssb.loader import load_for_clydesdale
from repro.ssb.schema import SCHEMAS
from repro.storage.cif import group_descriptors, write_cif_table
from repro.storage.dimcopy import encode_dimension_copy
from repro.storage.rowformat import write_row_table
from repro.storage.tablemeta import TableMeta

#: SHA-256 over every HDFS file (path and bytes, the tables' ``.meta``
#: JSON included), every node-local blob and every catalog entry's
#: JSON, as the value-by-value encoders wrote them at SF 0.002, seed 42.
LOAD_DIGEST = ("ec6c9e08e43d9d6d3fbb2dc3fcdfb8c4"
               "50808d48fb4738a04ce2f6bccd8b9a3c")


def load_digest(fs: MiniDFS, catalog) -> str:
    digest = hashlib.sha256()
    for path in fs.namenode.all_paths():
        digest.update(path.encode() + b"\0" + fs.read_file(path))
    for node in fs.node_ids:
        datanode = fs.datanode(node)
        for name in datanode.scratch_names():
            digest.update(f"{node}:{name}".encode() + b"\0"
                          + datanode.scratch_read(name))
    for name in sorted(catalog.tables):
        digest.update(catalog.meta(name).to_json().encode())
    return digest.hexdigest()


def test_loader_output_is_pinned(ssb_data):
    fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
    catalog = load_for_clydesdale(fs, ssb_data)
    assert load_digest(fs, catalog) == LOAD_DIGEST


SUPPLIER = SCHEMAS["supplier"]
GOOD = (1, "Supplier#000000001", "addr", "PERU     0", "PERU",
        "AMERICA", "27-918-335-1736")


@pytest.fixture
def ragged_rows():
    """A 7-column supplier row with one value too many and one with one
    too few, each after a good row."""
    assert len(GOOD) == len(SUPPLIER) == 7
    return {"long": [GOOD, GOOD[:6] + ("x", "extra")],
            "short": [GOOD, GOOD[:6]]}


@pytest.mark.parametrize("shape", ["long", "short"])
def test_every_writer_rejects_a_ragged_row(ragged_rows, shape):
    rows = ragged_rows[shape]
    fs = MiniDFS(num_nodes=2, placement=CoLocatingPlacementPolicy())
    arity = len(rows[1])
    message = rf"row arity {arity} != schema arity 7"
    with pytest.raises(StorageError, match=message):
        write_cif_table(fs, "supplier", "/t/cif", SUPPLIER, rows)
    with pytest.raises(StorageError, match=message):
        write_row_table(fs, "supplier", "/t/rows", SUPPLIER, rows)
    with pytest.raises(StorageError, match="row arity"):
        encode_dimension_copy(SUPPLIER, rows)
    assert not fs.exists("/t/cif/.meta")


@pytest.mark.parametrize("shape", ["long", "short"])
def test_roll_in_rejects_a_ragged_row(ragged_rows, shape):
    fs = MiniDFS(num_nodes=2, placement=CoLocatingPlacementPolicy())
    meta = write_cif_table(fs, "supplier", "/t/cif", SUPPLIER, [GOOD],
                           row_group_size=4)
    with pytest.raises(StorageError,
                       match=rf"row arity {len(ragged_rows[shape][1])} "
                             rf"!= schema arity 7"):
        append_fact_rows(fs, meta, ragged_rows[shape])
    # Nothing of the rejected group reached the table.
    assert meta.num_rows == 1
    assert len(group_descriptors(TableMeta.load(fs, "/t/cif"))) == 1
    assert not fs.list_dir("/t/cif/rg-00001")

