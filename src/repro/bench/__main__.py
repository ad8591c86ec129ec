"""CLI entry point: ``python -m repro.bench <target>``.

Targets:

* ``fig7``   — Clydesdale vs Hive, SF1000, cluster A (9 nodes)
* ``fig8``   — Clydesdale vs Hive, SF1000, cluster B (42 nodes)
* ``fig9``   — feature ablation on cluster A
* ``table1`` — TestDFSIO HDFS bandwidth table
* ``q21``    — the section 6.3 Q2.1 stage breakdown
* ``calibration`` — how each cost constant derives from the paper
* ``validate`` — run all 13 queries functionally on all engines
* ``perfsmoke`` — time the block kernel vs record-at-a-time
  execution, a zone-map-pruned query, the warm session cache and an
  aggregate-store rollup; writes
  ``BENCH_perfsmoke.json``. With ``--check``, exits non-zero when any
  number falls below its regression floor or above its ceiling.
* ``export`` — write every series to results/*.csv and *.json
* ``report`` — regenerate the paper-vs-measured markdown report
* ``all``    — everything above (except export)
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import (
    fig7,
    fig8,
    fig9,
    q21_breakdown,
    render_ablation_figure,
    render_q21,
    render_speedup_figure,
    render_table1,
    table1,
    validate_small_scale,
)
from repro.bench.report import render_table

TARGETS = ("fig7", "fig8", "fig9", "table1", "q21",
           "calibration", "validate", "perfsmoke", "export", "report",
           "all")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument("--scale-factor", type=float, default=0.002,
                        help="scale factor for functional validation")
    parser.add_argument("--out-dir", default="results",
                        help="output directory for the export target")
    parser.add_argument("--check", action="store_true",
                        help="perfsmoke only: fail (exit 1) when a "
                             "number regresses below its floor")
    args = parser.parse_args(argv)

    targets = (TARGETS[:-3] if args.target == "all"
               else (args.target,))
    for target in targets:
        if target == "fig7":
            print(render_speedup_figure(
                fig7(), "Figure 7: Clydesdale vs Hive at SF1000 on "
                        "Cluster A (9 nodes)"))
        elif target == "fig8":
            print(render_speedup_figure(
                fig8(), "Figure 8: Clydesdale vs Hive at SF1000 on "
                        "Cluster B (42 nodes)"))
        elif target == "fig9":
            print(render_ablation_figure(fig9()))
        elif target == "table1":
            print(render_table1(table1()))
        elif target == "q21":
            print(render_q21(q21_breakdown()))
        elif target == "calibration":
            from repro.model.calibration import calibration_report
            print(calibration_report())
        elif target == "perfsmoke":
            from repro.bench.perfsmoke import (
                check_floors,
                render_perfsmoke,
                run_perfsmoke,
            )
            report = run_perfsmoke()
            print(render_perfsmoke(report))
            print("wrote BENCH_perfsmoke.json")
            if args.check:
                failures = check_floors(report)
                for failure in failures:
                    print(f"PERFSMOKE REGRESSION: {failure}")
                if failures:
                    return 1
                print("all perfsmoke floors and ceilings hold")
        elif target == "export":
            from repro.bench.export import export_all
            for path in export_all(args.out_dir):
                print(f"wrote {path}")
        elif target == "report":
            from repro.bench.narrative import render_markdown_report
            print(render_markdown_report())
        elif target == "validate":
            outcomes = validate_small_scale(scale_factor=args.scale_factor)
            rows = [[name, o["rows"], f"{o['clydesdale_s']:.1f}",
                     f"{o['mapjoin_s']:.1f}", f"{o['repartition_s']:.1f}"]
                    for name, o in outcomes.items()]
            print(render_table(
                ["query", "result rows", "clydesdale (sim s)",
                 "mapjoin (sim s)", "repartition (sim s)"], rows,
                title=f"Functional validation at SF{args.scale_factor}: "
                      f"all engines agree with the reference engine"))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
