#!/usr/bin/env python3
"""Fault tolerance walk-through: kill nodes under a running workload.

The paper's argument for building on an *unmodified* Hadoop (rather than
HadoopDB's per-node databases) is that HDFS masks disk and node failures
on commodity hardware. This example demonstrates the whole story:

1. load SSB data (3-way replicated, columns co-located);
2. run Q3.1 — remember the answer;
3. kill a node: the query still runs (remote replicas serve the data);
4. re-replicate: replication factor restored;
5. recover the node empty, re-fetch its dimension cache from HDFS;
6. the answer never changes.
"""

from repro.core.engine import ClydesdaleEngine
from repro.hdfs.faults import FaultInjector
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.loader import refresh_dim_cache
from repro.ssb.queries import ssb_queries


def replica_summary(injector: FaultInjector) -> str:
    histogram = injector.surviving_replica_histogram()
    return ", ".join(f"{count} blocks @ {replicas} replicas"
                     for replicas, count in sorted(histogram.items()))


def main() -> None:
    data = SSBGenerator(scale_factor=0.002, seed=42).generate()
    engine = ClydesdaleEngine.with_ssb_data(data=data, num_nodes=6,
                                            row_group_size=2_000)
    session = Session(engine)
    query = ssb_queries()["Q3.1"]
    injector = FaultInjector(engine.fs)

    baseline = session.execute(query)
    plan = session.stats().execution.job.plan
    print(f"Baseline Q3.1: {len(baseline.rows)} groups, "
          f"locality {plan.data_local_fraction:.0%}")
    print(f"  replicas: {replica_summary(injector)}")

    victim = injector.kill_random_node()
    print(f"\nKilled {victim}.")
    print(f"  replicas now: {replica_summary(injector)}")
    after_kill = session.execute(query)
    assert after_kill.rows == baseline.rows
    print("  Q3.1 still returns the identical answer "
          "(remote replicas served the data).")

    created = injector.heal()
    print(f"\nRe-replication created {created} new replicas.")
    print(f"  replicas now: {replica_summary(injector)}")

    injector.recover_node(victim)
    restored = refresh_dim_cache(engine.fs, engine.catalog, victim)
    print(f"\nRecovered {victim} with blank disks; re-fetched "
          f"{restored} dimension caches from the HDFS master copies.")

    second = injector.kill_random_node()
    print(f"Killed {second} as well.")
    final = session.execute(query)
    assert final.rows == baseline.rows
    print("  Q3.1 STILL returns the identical answer. Two node losses, "
          "zero wrong results.")


if __name__ == "__main__":
    main()
