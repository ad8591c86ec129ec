#!/usr/bin/env python3
"""Run the full Star Schema Benchmark (all 13 queries, flights 1-4) on
Clydesdale and both Hive plans, verifying every answer against the
reference engine — the functional core of the paper's evaluation.

Usage::

    python examples/ssb_star_joins.py [scale_factor]
"""

import sys
import time

from repro.bench.report import render_table
from repro.core.engine import ClydesdaleEngine
from repro.hive.engine import HiveEngine
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import flight_of, ssb_queries


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    data = SSBGenerator(scale_factor=scale_factor, seed=42).generate()
    clyde = Session(ClydesdaleEngine.with_ssb_data(data=data, num_nodes=4))
    hive = HiveEngine.with_ssb_data(data=data, num_nodes=4)
    mapjoin = Session(hive, plan="mapjoin")
    repartition = Session(hive, plan="repartition")
    reference = ReferenceEngine.from_ssb(data)

    rows = []
    wall_start = time.perf_counter()
    for name, query in ssb_queries().items():
        expected = reference.execute(query)
        got_clyde = clyde.execute(query)
        got_mj = mapjoin.execute(query)
        got_rp = repartition.execute(query)
        for engine_name, got in (("clydesdale", got_clyde),
                                 ("mapjoin", got_mj),
                                 ("repartition", got_rp)):
            if got.rows != expected.rows:
                raise SystemExit(f"{name}: {engine_name} DISAGREES")
        rows.append([
            name,
            flight_of(name),
            len(expected.rows),
            f"{got_clyde.simulated_seconds:.1f}",
            f"{got_mj.simulated_seconds:.1f}",
            f"{got_rp.simulated_seconds:.1f}",
            f"{got_mj.simulated_seconds / got_clyde.simulated_seconds:.1f}x",
        ])
    wall = time.perf_counter() - wall_start

    print(render_table(
        ["query", "flight", "rows", "clydesdale (sim s)",
         "mapjoin (sim s)", "repartition (sim s)", "speedup vs mapjoin"],
        rows,
        title=f"Star schema benchmark at SF {scale_factor} "
              f"(all answers verified)"))
    print(f"\n39 engine executions, all correct, "
          f"in {wall:.1f} wall-clock seconds.")


if __name__ == "__main__":
    main()
