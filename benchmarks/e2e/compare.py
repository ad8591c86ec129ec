"""Compare two result sets written by ``run.py --repeat N --out``.

    python benchmarks/e2e/compare.py parent.json change.json

For every (end-to-end metric, workload) pair it prints both medians with
their quartiles and relative spread, the change in the metric's "worse"
direction, and one verdict using the bounds in ``BENCHMARK.json``:

* ``unresolved`` — a side's run-to-run spread exceeds the bound, unless
  every run of the change reads better than every run of the parent;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — the change wins at least nine tenths of the pairs (run
  ``i`` of one file against run ``i`` of the other, ties counting for
  neither) and its median is better by more than the spread between the
  parent's own runs (the distance between their quartiles);
* ``within bound`` — anything else.

Per-layer metrics (from ``--traced`` runs) have no bounds; they are
listed side by side.  Exit code 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def values_by_pair(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [one value per run]}`` of a result file."""
    pairs: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for metric, entry in run["metrics"].items():
            pairs.setdefault((run["workload"], metric), []).append(
                entry["value"])
    return pairs


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of a metric's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and the relative change towards "worse" (> 0 means
    the change reads worse)."""
    sign = 1.0 if better == "lower" else -1.0
    old, new = spread(parent), spread(change)
    gained = sign * (old["median"] - new["median"])
    worse_by = -gained / old["median"] if old["median"] else 0.0
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if max(old["spread"], new["spread"]) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = [sign * (p - c) for p, c in zip(parent, change) if p != c]
    wins = sum(1 for gain in pairs if gain > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and gained > old["q3"] - old["q1"]):
        return "better", worse_by
    return "within bound", worse_by


def describe(values: list[float]) -> str:
    s = spread(values)
    return (f"{s['median']:.5g} [{s['q1']:.5g}..{s['q3']:.5g}] "
            f"±{s['spread']:.3f} n={len(values)}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = values_by_pair(argv[0]), values_by_pair(argv[1])
    status = 0
    for pair in sorted(parent.keys() & change.keys()):
        workload, metric = pair
        line = (f"{workload:<11} {metric:<32} parent {describe(parent[pair])}"
                f" | change {describe(change[pair])}")
        if metric in bounded:
            declared = bounded[metric]
            word, worse_by = verdict(parent[pair], change[pair],
                                     declared["better"], declared["bound"])
            line += (f" | {worse_by:+.3f} towards worse, bound "
                     f"{declared['bound']}: {word}")
            status |= word == "worse"
        print(line)
    for pair in sorted(parent.keys() ^ change.keys()):
        print(f"{pair[0]:<11} {pair[1]:<32} only on one side")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
