"""Perf smoke test: block iteration, session cache, aggregate store.

Run as ``python -m repro.bench perfsmoke``: times the block kernel
against record-at-a-time execution on one generated fact scan (the
paper's block-iteration technique in wall-clock, both through the
public ``mapper.map``), times a warm-vs-cold Q2.1 repeat through a
cache-carrying session and an aggregate-store rollup, and writes the
numbers to ``BENCH_perfsmoke.json``.
``--check`` compares
each headline number against :data:`FLOORS` / :data:`CEILINGS` and
fails the run (and the CI bench job) on any regression instead of just
uploading the report.
"""

from __future__ import annotations

import json
import time

from repro.common.record import Record
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import OutputCollector
from repro.ssb.schema import SCHEMAS
from repro.storage.cif import RowBlock
from repro.storage.columnvector import ensure_vector

#: Regression floors for ``--check``: measured values sit well above
#: these (see EXPERIMENTS.md); a breach means a real regression, not
#: runner noise. Keys are dotted paths into the perfsmoke report.
FLOORS = {
    # the block kernel vs record-at-a-time through mapper.map
    "kernels.speedup": 10.0,
    # subsumption rollup vs re-executing the coarser query
    "aggstore.rollup_speedup": 5.0,
}

#: Ceilings for ``--check``: a value *above* the ceiling fails.
CEILINGS = {
    # A cold query is a warm one plus plan, column reads and masked
    # builds (measured 1.3-1.7x; 9x when the node-local dimension copy
    # was decoded row by row): the cold path must not become a row
    # decoder again, and a warm repeat must build nothing.
    "session_cache.cold_over_warm": 3.0,
    "session_cache.warm_ht_builds": 0.0,
    # A cold query builds each distinct table once per host, however
    # many of the emulated nodes need it (paper 4.2: once per node).
    "session_cache.cold_builds_per_table": 1.0,
    # a subsumed repeat must never touch the fact table
    "aggstore.subsumed_fact_scans": 0.0,
}


def _q11_query():
    from repro.core.expressions import And, Between, Col, Comparison
    from repro.core.query import Aggregate, DimensionJoin, StarQuery
    return StarQuery(
        name="perfsmoke-q11", fact_table="lineorder",
        joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                             Comparison("d_year", "=", 1993))],
        fact_predicate=And([Between("lo_discount", 1, 3),
                            Comparison("lo_quantity", "<", 25)]),
        aggregates=[Aggregate(
            "sum", Col("lo_extendedprice") * Col("lo_discount"),
            alias="revenue")],
        group_by=[])


def _mapper(date_rows, combiner=None):
    from repro.core.joinjob import StarJoinMapper, configure_query
    from repro.mapreduce.api import TaskContext
    from repro.storage.dimcopy import encode_dimension_copy
    conf = JobConf("perfsmoke")
    configure_query(conf, _q11_query(), SCHEMAS["lineorder"],
                    {"date": SCHEMAS["date"]})
    conf.combiner_class = combiner
    blob = encode_dimension_copy(SCHEMAS["date"], date_rows)
    context = TaskContext(
        conf=conf, node_id="node000", task_id="m-0", jvm_state={},
        node_local_read=lambda n, f: blob, threads=1)
    mapper = StarJoinMapper()
    mapper.initialize(context)
    return mapper, context


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _q11_scan(scale_factor: float):
    """Q1.1-shaped fact scan as (date_rows, records, blocks, num_rows).

    The blocks are views of four whole-scan typed buffers cut at the
    engine's row-group size, as the B-CIF reader hands them to the
    kernel; the records are the same rows as the row reader hands them.
    """
    from repro.core.engine import ROW_GROUP_SIZE
    from repro.ssb.datagen import (
        SSBGenerator,
        customer_count,
        part_count,
        supplier_count,
    )
    gen = SSBGenerator(scale_factor=scale_factor, seed=7)
    date_rows = gen.gen_date()
    date_keys = [row[0] for row in date_rows]
    names = ("lo_orderdate", "lo_discount", "lo_quantity",
             "lo_extendedprice")
    indexes = [SCHEMAS["lineorder"].index_of(n) for n in names]
    columns = {name: [] for name in names}
    for row in gen.iter_lineorder(
            customer_count(scale_factor), supplier_count(scale_factor),
            part_count(scale_factor), date_keys):
        for name, idx in zip(names, indexes):
            columns[name].append(row[idx])
    num_rows = len(columns["lo_orderdate"])
    schema = SCHEMAS["lineorder"].project(list(names))
    records = [Record(schema, row) for row in zip(
        *(columns[name] for name in names))]
    vectors = {name: ensure_vector(values, "<i8")
               for name, values in columns.items()}
    blocks = [
        RowBlock(schema, start,
                 {name: vec[start:start + ROW_GROUP_SIZE]
                  for name, vec in vectors.items()})
        for start in range(0, num_rows, ROW_GROUP_SIZE)]
    return date_rows, records, blocks, num_rows


def _merged_per_key(pairs, context) -> list:
    """``pairs`` after the star-join combiner, as the runtime runs it."""
    from repro.core.joinjob import StarJoinCombiner
    from repro.mapreduce.shuffle import run_combiner
    combiner = StarJoinCombiner()
    combiner.initialize(context)

    def combine(key, values):
        out = OutputCollector()
        combiner.reduce(key, values, out, context)
        return out.pairs

    return run_combiner(pairs, combine)


def kernel_smoke(scale_factor: float = 0.05) -> dict:
    """Time the Q1.1 scan as blocks and as records, both through the
    public ``mapper.map`` — block iteration's wall-clock win — and the
    blocks again under a combiner-configured job, whose kernel emits
    one pair per group per block (``grouped_speedup`` is its gain over
    the per-survivor emission)."""
    from repro.core.joinjob import StarJoinCombiner
    date_rows, records, blocks, num_rows = _q11_scan(scale_factor)
    mapper, context = _mapper(date_rows)
    grouped, grouped_context = _mapper(date_rows, StarJoinCombiner)

    results: dict[str, list] = {}

    def run(label, values, kernel=mapper, kernel_context=context):
        out = OutputCollector()
        for key, value in enumerate(values):
            kernel.map(key, value, out, kernel_context)
        results[label] = sorted(out.pairs)

    block_s = _best_of(lambda: run("block", blocks))
    grouped_s = _best_of(lambda: run("grouped", blocks, grouped,
                                     grouped_context))
    record_s = _best_of(lambda: run("record", records))
    if results["block"] != results["record"]:
        raise AssertionError(
            "block and record-at-a-time paths disagree on the smoke "
            "query")
    if (_merged_per_key(results["grouped"], grouped_context)
            != _merged_per_key(results["record"], grouped_context)):
        raise AssertionError(
            "the grouped emission disagrees with record-at-a-time "
            "execution after the per-key merge")
    return {
        "fact_rows": num_rows,
        "block_s": round(block_s, 4),
        "grouped_s": round(grouped_s, 4),
        "record_s": round(record_s, 4),
        "speedup": round(record_s / block_s, 2),
        "grouped_speedup": round(block_s / grouped_s, 2),
    }


def _cold_builds_per_table(data, query) -> float:
    """Real builds per distinct table of one cold ``query`` on a
    cluster where every node runs a map task of it (2,000-row groups):
    the session cache misses on every node, and each table adopted from
    the job's own build is not a real one."""
    from repro.core.engine import ClydesdaleEngine
    from repro.serve.cache import HashTableCache
    from repro.serve.session import Session
    session = Session(ClydesdaleEngine.with_ssb_data(
        data=data, row_group_size=2000), cache=HashTableCache(1 << 27))
    session.execute(query)
    stats = session.stats().execution
    built = stats.ht_cache_misses - stats.ht_tables_adopted
    return built / len(query.joins)


def session_cache_smoke(scale_factor: float = 0.002) -> dict:
    """Warm-vs-cold Q2.1 through one session: the warm repeat must skip
    every hash-table build and return byte-identical rows, and the cold
    run — column reads and masked builds — must stay near the warm one
    (``cold_over_warm``). A cold Q2.1 spread over every node builds
    each table once (``cold_builds_per_table``)."""
    from repro.api import connect
    from repro.reference.engine import ReferenceEngine
    from repro.ssb.datagen import SSBGenerator
    from repro.ssb.queries import ssb_queries

    data = SSBGenerator(scale_factor=scale_factor, seed=42).generate()
    # aggstore=False: this smoke measures the hash-table cache, so the
    # warm repeat must reach the engine instead of the aggregate store.
    session = connect(backend="clydesdale", data=data, aggstore=False)
    query = ssb_queries()["Q2.1"]

    def cold_run():
        session.invalidate_cache()
        session.execute(query)

    cold_s = _best_of(cold_run)
    cold_result = session.execute(query)  # leaves the cache warm
    warm_s = _best_of(lambda: session.execute(query))
    warm_stats = session.stats().execution
    warm_result = session.execute(query)
    expected = ReferenceEngine.from_ssb(data).execute(query).rows
    cache = session.cache_stats()
    return {
        "query": query.name,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_over_warm": round(cold_s / warm_s, 2),
        "warm_ht_builds": warm_stats.ht_builds,
        "cold_builds_per_table": round(
            _cold_builds_per_table(data, query), 2),
        "ht_cache_hits": cache.hits,
        "ht_cache_misses": cache.misses,
        "cache_entries": cache.entries,
        "cache_bytes": cache.bytes_cached,
        "rows_match_reference": (warm_result.rows == cold_result.rows
                                 == expected),
    }


def aggstore_smoke(scale_factor: float = 0.002) -> dict:
    """Dashboard drilldown through the materialized aggregate store.

    A fine-grained group-by (Q2.1: year × brand) is executed once;
    strictly coarser repeats (year only) must then be answered by
    in-memory rollup — byte-identical to a fresh execution, at least
    5x faster than re-executing, and without a single fact-table scan.
    """
    from repro.api import connect
    from repro.core.query import OrderKey
    from repro.reference.engine import ReferenceEngine
    from repro.ssb.datagen import SSBGenerator
    from repro.ssb.queries import ssb_queries

    data = SSBGenerator(scale_factor=scale_factor, seed=42).generate()
    session = connect(backend="clydesdale", data=data)
    baseline = connect(backend="clydesdale", data=data, aggstore=False)
    fine = ssb_queries()["Q2.1"]        # group by (d_year, p_brand1)
    coarse = (fine.with_name("Q2.1-by-year").without_order_by()
              .with_group_by(["d_year"])
              .with_order_by([OrderKey("d_year")]))
    session.execute(fine)               # cold: executes and admits

    subsumed_scans = [0]

    def rollup_run():
        session.execute(coarse)
        subsumed_scans[0] += session.last_provenance.scanned_rows

    rollup_s = _best_of(rollup_run)
    source = session.last_provenance.source
    rollup_result = session.execute(coarse)
    execute_s = _best_of(lambda: baseline.execute(coarse))
    expected = ReferenceEngine.from_ssb(data).execute(coarse).rows
    stats = session.aggstore.stats()
    return {
        "fine_query": fine.name,
        "coarse_query": coarse.name,
        "source": source,
        "rollup_s": round(rollup_s, 6),
        "execute_s": round(execute_s, 4),
        "rollup_speedup": round(execute_s / rollup_s, 2),
        "subsumed_fact_scans": subsumed_scans[0],
        "hits_rollup": stats.hits_rollup,
        "rolled_rows": stats.rolled_rows,
        "store_entries": stats.entries,
        "store_bytes": stats.bytes_cached,
        "rows_match_reference": rollup_result.rows == expected,
    }


def run_perfsmoke(scale_factor: float = 0.05,
                  out_path: str = "BENCH_perfsmoke.json") -> dict:
    """Run all smokes, write ``out_path``, return the combined report."""
    report = {
        "kernels": kernel_smoke(scale_factor=scale_factor),
        "session_cache": session_cache_smoke(),
        "aggstore": aggstore_smoke(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def check_floors(report: dict,
                 floors: dict[str, float] | None = None,
                 ceilings: dict[str, float] | None = None) -> list[str]:
    """Regressions against :data:`FLOORS`/:data:`CEILINGS` as
    human-readable failures.

    A floor fails when the value sits *below* it, a ceiling when the
    value sits *above* it. Correctness markers in the report
    (``rows_match_reference``) are checked too: a smoke that no longer
    matches the reference engine is a failure even though it has no
    numeric bound.
    """
    failures: list[str] = []
    for path, floor in (floors if floors is not None
                        else FLOORS).items():
        section, _, field = path.partition(".")
        value = report.get(section, {}).get(field)
        if value is None:
            failures.append(f"{path}: missing from the report")
        elif value < floor:
            failures.append(f"{path}: {value} is below the floor "
                            f"{floor}")
    for path, ceiling in (ceilings if ceilings is not None
                          else CEILINGS).items():
        section, _, field = path.partition(".")
        value = report.get(section, {}).get(field)
        if value is None:
            failures.append(f"{path}: missing from the report")
        elif value > ceiling:
            failures.append(f"{path}: {value} is above the ceiling "
                            f"{ceiling}")
    for section, body in sorted(report.items()):
        if isinstance(body, dict) and \
                body.get("rows_match_reference") is False:
            failures.append(f"{section}: rows no longer match the "
                            f"reference engine")
    return failures


def render_perfsmoke(report: dict) -> str:
    kernels = report["kernels"]
    lines = [
        "Perf smoke: block iteration + session cache + aggregate store",
        "=" * 60,
        f"fact scan: {kernels['fact_rows']:,} rows, "
        f"block kernel {kernels['block_s'] * 1000:.1f} ms vs "
        f"record-at-a-time {kernels['record_s'] * 1000:.1f} ms "
        f"-> {kernels['speedup']:.2f}x; under a combiner "
        f"{kernels['grouped_s'] * 1000:.1f} ms "
        f"-> {kernels['grouped_speedup']:.2f}x over per-survivor emits",
    ]
    cache = report.get("session_cache")
    if cache:
        lines.append(
            f"session cache ({cache['query']}): cold "
            f"{cache['cold_s'] * 1000:.1f} ms vs warm "
            f"{cache['warm_s'] * 1000:.1f} ms -> cold/warm "
            f"{cache['cold_over_warm']:.2f}, "
            f"warm builds {cache['warm_ht_builds']}, "
            f"cold builds per table {cache['cold_builds_per_table']}, "
            f"{cache['ht_cache_hits']} hits / "
            f"{cache['ht_cache_misses']} misses, "
            f"reference match: {cache['rows_match_reference']}")
    agg = report.get("aggstore")
    if agg:
        lines.append(
            f"aggstore ({agg['fine_query']} -> {agg['coarse_query']}): "
            f"rollup {agg['rollup_s'] * 1000:.2f} ms vs re-execute "
            f"{agg['execute_s'] * 1000:.1f} ms "
            f"-> {agg['rollup_speedup']:.1f}x, "
            f"{agg['subsumed_fact_scans']} fact scans on subsumed "
            f"repeats, {agg['rolled_rows']} rows rolled, "
            f"reference match: {agg['rows_match_reference']}")
    return "\n".join(lines)
