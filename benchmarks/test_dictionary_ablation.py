"""Design-choice ablation: dictionary encoding of CIF string columns
(paper section 8's "advanced storage organization" future work).

Measures real on-disk fact-table bytes with and without dictionary
encoding and the resulting scan-byte reduction for a query touching a
low-cardinality string column.
"""

from repro.bench.report import render_table
from repro.common.schema import Schema
from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import Col
from repro.core.query import Aggregate, DimensionJoin, StarQuery
from repro.hdfs.filesystem import MiniDFS
from repro.hdfs.placement import CoLocatingPlacementPolicy
from repro.serve.session import Session
from repro.ssb.loader import load_for_clydesdale
from repro.ssb.schema import SCHEMAS
from repro.storage.cif import write_cif_table
from repro.storage.tablemeta import table_bytes


def _engines(small_data):
    engines = {}
    for dictionary in (True, False):
        fs = MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy())
        catalog = load_for_clydesdale(fs, small_data)
        fs.delete(catalog.meta("lineorder").directory, recursive=True)
        catalog.tables["lineorder"] = write_cif_table(
            fs, "lineorder", catalog.meta("lineorder").directory,
            SCHEMAS["lineorder"], small_data.lineorder,
            row_group_size=25_000, dictionary=dictionary)
        engines[dictionary] = ClydesdaleEngine(fs, catalog)
    return engines


def test_dictionary_table_size_reduction(benchmark, small_data):
    engines = benchmark(_engines, small_data)
    sizes = {flag: table_bytes(engine.fs,
                               engine.catalog.meta("lineorder"))
             for flag, engine in engines.items()}
    assert sizes[True] < sizes[False]
    saving = 1 - sizes[True] / sizes[False]
    assert saving > 0.05  # several string columns compress well

    print()
    print(render_table(
        ["encoding", "fact table bytes"],
        [["plain", f"{sizes[False]:,}"],
         ["dictionary", f"{sizes[True]:,} ({saving:.0%} smaller)"]],
        title="CIF fact table size, dictionary vs plain"))


def test_dictionary_scan_bytes_and_correctness(benchmark, small_data):
    """A query over low-cardinality string columns reads fewer bytes
    from the dictionary-encoded table — and the same answer."""
    query = StarQuery(
        name="by-shipmode-priority",
        fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey")],
        aggregates=[Aggregate("sum", Col("lo_revenue"), alias="revenue")],
        group_by=["lo_shipmode", "lo_orderpriority"],
    )

    engines = _engines(small_data)

    def run_both():
        results = {}
        for flag, engine in engines.items():
            result = Session(engine).execute(query)
            results[flag] = (result,
                             engine.last_stats.hdfs_bytes_read)
        return results

    results = benchmark(run_both)
    assert results[True][0].row_set() == results[False][0].row_set()
    assert results[True][1] < results[False][1]
