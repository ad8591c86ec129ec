#!/usr/bin/env python3
"""Quickstart: generate SSB data, run a star-join query on Clydesdale,
and compare against the Hive baseline — all through `repro.api.connect`.

Usage::

    python examples/quickstart.py [scale_factor]

Everything runs in-process: a mini-HDFS with a co-locating block
placement policy holds the CIF fact table, the MapReduce engine executes
the join, and simulated timings come from the calibrated cost model.
The session carries a cross-query hash-table cache and a materialized
aggregate store, so repeating a query skips the engine entirely —
`session.stats().provenance` records how each answer was produced.
"""

import sys

from repro.api import connect
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    print(f"Generating SSB data at SF {scale_factor} ...")
    data = SSBGenerator(scale_factor=scale_factor, seed=42).generate()
    for table, rows in data.tables().items():
        print(f"  {table:9s} {len(rows):>9,} rows")

    print("\nLoading Clydesdale layout (CIF fact table, cached dims) ...")
    clyde = connect(backend="clydesdale", data=data)

    query = ssb_queries()["Q2.1"]
    print("\nThe query (paper section 6.3's worked example):")
    print(query.to_sql())

    print("\nWhat Clydesdale will do (EXPLAIN):")
    print(clyde.explain(query))

    result = clyde.execute(query)
    print(f"\nClydesdale answered in {result.simulated_seconds:.1f} "
          f"simulated seconds "
          f"({len(result.rows)} groups):")
    print(result.pretty(max_rows=8))

    stats = clyde.stats().execution
    print(f"\nExecution stats: probed {stats.rows_probed:,} fact rows, "
          f"{stats.rows_matched:,} matched "
          f"({100 * stats.join_selectivity():.2f}%); "
          f"hash tables built {stats.ht_builds} time(s) — once per node.")

    warm = clyde.execute(query)
    assert warm.rows == result.rows
    prov = clyde.stats().provenance
    print(f"Warm repeat: served from the materialized aggregate store "
          f"(source={prov.source}, fact rows scanned: "
          f"{prov.scanned_rows}) — the engine never ran.")

    print("\nLoading Hive layout (everything in RCFile) ...")
    for plan in ("mapjoin", "repartition"):
        hive = connect(backend="hive", data=data, plan=plan)
        hive_result = hive.execute(query)
        assert hive_result.rows == result.rows, "engines disagree!"
        speedup = (hive_result.simulated_seconds
                   / result.simulated_seconds)
        print(f"Hive {plan:11s}: {hive_result.simulated_seconds:7.1f} "
              f"simulated s across {len(hive.stats().execution.stages)} "
              f"stages -> Clydesdale is {speedup:.1f}x faster")

    print("\nSame answers, very different costs — the paper's thesis.")


if __name__ == "__main__":
    main()
