"""repro — a full Python reproduction of *Clydesdale: Structured Data
Processing on MapReduce* (Kaldewey, Shekita, Tata; EDBT 2012).

The package layers, bottom to top:

- :mod:`repro.common` — schemas, records, configuration.
- :mod:`repro.sim` — simulated cluster hardware and the calibrated cost
  model (clusters A and B from the paper).
- :mod:`repro.hdfs` — mini-HDFS with replication and pluggable block
  placement.
- :mod:`repro.mapreduce` — a Hadoop-like MapReduce engine (InputFormats,
  MapRunners, JVM reuse, schedulers, distributed cache).
- :mod:`repro.storage` — CIF / MultiCIF / B-CIF columnar formats and the
  RCFile baseline format.
- :mod:`repro.ssb` — the Star Schema Benchmark: data generator, loader,
  and all 13 queries.
- :mod:`repro.core` — the Clydesdale star-join engine (the paper's
  contribution).
- :mod:`repro.hive` — the Hive baseline (mapjoin and repartition plans).
- :mod:`repro.model` — analytic SF1000 timing models calibrated against
  the paper's published breakdowns.
- :mod:`repro.bench` — harnesses that regenerate every figure and table.

- :mod:`repro.serve` — query sessions, the cross-query hash-table
  cache, and the admission-controlled server.

Quickstart::

    from repro import connect, ssb_queries
    session = connect("clydesdale")          # SF 0.01, seed 42
    result = session.execute(ssb_queries()["Q2.1"])
    for row in result.rows:
        print(row)
"""

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy exports keep `import repro` cheap and avoid circular imports.
    if name == "ClydesdaleEngine":
        from repro.core.engine import ClydesdaleEngine
        return ClydesdaleEngine
    if name == "HiveEngine":
        from repro.hive.engine import HiveEngine
        return HiveEngine
    if name == "StarQuery":
        from repro.core.query import StarQuery
        return StarQuery
    if name == "ssb_queries":
        from repro.ssb.queries import ssb_queries
        return ssb_queries
    if name == "parse_sql":
        from repro.core.sqlparser import parse_sql
        return parse_sql
    if name == "MiniDFS":
        from repro.hdfs import MiniDFS
        return MiniDFS
    if name == "connect":
        from repro.api import connect
        return connect
    if name == "Session":
        from repro.serve.session import Session
        return Session
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "ClydesdaleEngine",
    "HiveEngine",
    "MiniDFS",
    "Session",
    "StarQuery",
    "connect",
    "parse_sql",
    "ssb_queries",
    "__version__",
]
