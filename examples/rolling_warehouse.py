#!/usr/bin/env python3
"""A living warehouse: daily roll-in/roll-out, memory-constrained
multi-pass joins, and sharing the cluster with an ETL job.

Demonstrates the reproduction's extension features (paper sections 2,
5.1 and 8):

1. three "days" of fact data roll in as fresh CIF row groups — existing
   data is never rewritten (the anti-Llama argument);
2. the oldest day rolls out by deleting whole row groups;
3. the same query runs via the multi-pass strategy used when dimension
   hash tables outgrow a node's memory;
4. a fair-share scheduler grants the join job half the cores, modeling a
   mixed-workload cluster.
"""

from repro.common.units import GB
from repro.core.engine import ClydesdaleEngine
from repro.core.rollin import (
    append_fact_rows,
    compare_rollin_cost,
    roll_out_oldest,
)
from repro.mapreduce.fairshare import WorkloadJob, model_concurrent_mix
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries
from repro.storage.cif import group_descriptors


def day_batch(engine, day: int, rows: int = 2_000):
    gen = SSBGenerator(scale_factor=rows / 6_000_000, seed=1000 + day)
    date_keys = [row[0] for row in engine.data.date]
    return list(gen.iter_lineorder(
        len(engine.data.customer), len(engine.data.supplier),
        len(engine.data.part), date_keys))


def main() -> None:
    data = SSBGenerator(scale_factor=0.002, seed=42).generate()
    engine = ClydesdaleEngine.with_ssb_data(data=data, num_nodes=4,
                                            row_group_size=2_000)
    session = Session(engine)
    meta = engine.catalog.meta("lineorder")
    query = ssb_queries()["Q3.1"]

    print(f"Day 0: {meta.num_rows:,} fact rows in "
          f"{len(group_descriptors(meta))} row groups")
    baseline = session.execute(query)
    print(f"  Q3.1 -> {len(baseline.rows)} groups")

    for day in (1, 2, 3):
        batch = day_batch(engine, day)
        append_fact_rows(engine.fs, meta, batch)
        result = session.execute(query)
        print(f"Day {day}: rolled in {len(batch):,} rows "
              f"(now {meta.num_rows:,}); Q3.1 -> {len(result.rows)} "
              f"groups, {result.simulated_seconds:.1f} sim s")

    _, removed = roll_out_oldest(engine.fs, meta, 2)
    print(f"\nRolled out the 2 oldest row groups ({removed:,} rows); "
          f"{meta.num_rows:,} remain. No surviving file was rewritten.")
    print("  Q3.1 still answers:",
          len(session.execute(query).rows), "groups")

    cost = compare_rollin_cost(334 * GB, 334 * GB / 365)
    print(f"\nAt SF1000 a daily roll-in would cost Clydesdale "
          f"{cost.clydesdale_seconds:,.0f} s; a Llama-style sorted "
          f"organization would need {cost.llama_seconds:,.0f} s "
          f"({cost.llama_overhead:,.0f}x) to merge its projections.")

    dims = [j.dimension for j in query.joins]
    multi = engine.execute_multipass(query, [dims[:1], dims[1:]])
    assert multi.rows == session.execute(query).rows
    print(f"\nMulti-pass (memory-constrained) plan: "
          f"{list(multi.breakdown)} -> identical answer, "
          f"{multi.simulated_seconds:.1f} sim s.")

    from repro.sim.hardware import cluster_a
    mix = model_concurrent_mix(
        [WorkloadJob("star-join", num_tasks=8, task_seconds=200, share=0.2),
         WorkloadJob("etl-scrub", num_tasks=480, task_seconds=20,
                     share=0.8)],
        cluster_a())
    print(f"\nSharing the cluster: join finishes in "
          f"{mix.per_job_seconds['star-join']:,.0f} s alongside ETL "
          f"({mix.per_job_seconds['etl-scrub']:,.0f} s); "
          f"{mix.sharing_benefit:.2f}x better than running them "
          f"back-to-back.")


if __name__ == "__main__":
    main()
