"""Storage formats: CIF / MultiCIF / B-CIF (Clydesdale), RCFile (Hive),
binary rows (dimensions, HDFS master copy), the columnar node-local
dimension copy, and pipe-delimited text (dbgen interchange)."""

from repro.storage.cif import (
    BCIFRecordReader,
    CIFRecordReader,
    CIFSplit,
    ColumnInputFormat,
    KEY_BLOCK_ITERATION,
    KEY_CIF_COLUMNS,
    RowBlock,
    group_descriptors,
    write_cif_table,
    write_row_group,
)
from repro.storage.dimcopy import (
    decode_dimension_copy,
    encode_dimension_copy,
)
from repro.storage.multicif import (
    KEY_SPLITS_PER_MULTI,
    MultiColumnInputFormat,
    MultiSplitReader,
)
from repro.storage.rcfile import (
    KEY_RCFILE_COLUMNS,
    RCFileInputFormat,
    RCFileRecordReader,
    RCFileSplit,
    write_rcfile_table,
)
from repro.storage.rowformat import (
    RowInputFormat,
    read_row_table,
    write_row_table,
)
from repro.storage.tablemeta import (
    FORMAT_CIF,
    FORMAT_RCFILE,
    FORMAT_ROWS,
    FORMAT_TEXT,
    TableMeta,
    data_files,
    table_bytes,
)
from repro.storage.textformat import (
    TextTableInputFormat,
    read_text_table,
    write_text_table,
)

__all__ = [
    "BCIFRecordReader",
    "CIFRecordReader",
    "CIFSplit",
    "ColumnInputFormat",
    "FORMAT_CIF",
    "FORMAT_RCFILE",
    "FORMAT_ROWS",
    "FORMAT_TEXT",
    "KEY_BLOCK_ITERATION",
    "KEY_CIF_COLUMNS",
    "KEY_RCFILE_COLUMNS",
    "KEY_SPLITS_PER_MULTI",
    "MultiColumnInputFormat",
    "MultiSplitReader",
    "RCFileInputFormat",
    "RCFileRecordReader",
    "RCFileSplit",
    "RowBlock",
    "RowInputFormat",
    "TableMeta",
    "TextTableInputFormat",
    "data_files",
    "decode_dimension_copy",
    "encode_dimension_copy",
    "group_descriptors",
    "read_row_table",
    "read_text_table",
    "table_bytes",
    "write_cif_table",
    "write_row_group",
    "write_rcfile_table",
    "write_row_table",
    "write_text_table",
]
