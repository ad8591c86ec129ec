"""Smoke tests of the e2e benchmark (``pytest benchmarks/e2e``; not part
of tier-1's ``tests/``).  They run the benchmark's ``--quick`` size in
subprocesses, the way a user or the driver does."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import streams  # noqa: E402
import verify  # noqa: E402
from repro.ssb.datagen import SSBGenerator  # noqa: E402


def quick_runs(tmp_path: Path, *flags: str) -> dict[str, dict]:
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(RUN + ["--quick", "--out", str(out), *flags],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    return {run["workload"]: run
            for run in json.loads(out.read_text())["runs"]}


def assert_declared(run: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    reported = {name: entry["unit"]
                for name, entry in run["metrics"].items()}
    assert reported == declared
    assert run["correct"] and run["failed"] == 0
    assert run["extra"]["failed_share"] == 0
    # Every request of the quick size reaches the oracle.
    assert run["extra"]["verify"]["checked"] == run["attempted"]


def test_quick_end_to_end(tmp_path):
    runs = quick_runs(tmp_path)
    assert list(runs) == WORKLOADS
    for name, run in runs.items():
        assert_declared(run, "end_to_end")
        assert all(entry["value"] > 0 for entry in run["metrics"].values())
    assert runs["ssb_warm"]["extra"]["reuse_share"] == 0
    assert runs["ssb_cold"]["extra"]["reuse_share"] == 0
    assert runs["drilldown"]["extra"]["reuse_share"] >= 0.95
    assert runs["serve_open"]["extra"]["rejected"] == 0


def test_quick_traced(tmp_path):
    runs = quick_runs(tmp_path, "--trace", "1")
    assert list(runs) == WORKLOADS
    for run in runs.values():
        assert_declared(run, "per_layer")
        walk = run["extra"]["walk"]
        assert len(walk) == 13
        assert all(facts["rows_equal"] for facts in walk.values())
        assert (ROOT / run["extra"]["chrome_trace"]).exists()
    metric = {name: {m: e["value"] for m, e in run["metrics"].items()}
              for name, run in runs.items()}
    assert metric["ssb_warm"]["htcache.hit_ratio"] == 1.0
    assert metric["ssb_warm"]["joinjob.ht_builds"] == 0
    assert metric["ssb_cold"]["htcache.hit_ratio"] == 0.0
    assert metric["ssb_cold"]["joinjob.ht_builds"] > 0
    assert metric["ssb_warm"]["hashtable.vectorized_share"] < 1.0
    assert metric["drilldown"]["aggstore.hit_ratio"] > 0.9
    assert metric["ssb_warm"]["aggstore.hits_exact"] == 0


def test_contract_line_and_digest(tmp_path):
    """``--workload`` prints the contract's JSON object last, and the
    stream digest follows the seed."""
    digests = []
    for seed in (7, 7, 8):
        done = subprocess.run(
            RUN + ["--workload", "drilldown", "--quick", "--seed",
                   str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        digests.append(next(line for line in lines if ". digest:" in line))
    assert digests[0] == digests[1] != digests[2]


def test_streams_are_seeded():
    def head(make, seed):
        units = islice(make(seed), 3)
        return streams.digest(r for unit in units for r in unit)

    for make in (streams.ssb_passes, streams.drilldown_families):
        assert head(make, 1) == head(make, 1) != head(make, 2)
    serve = [streams.digest(islice(streams.serve_requests(s), 100))
             for s in (1, 1, 2)]
    assert serve[0] == serve[1] != serve[2]
    # (The very first requests turn fresh while no family exists.)
    mix = [r.cls for r in islice(streams.serve_requests(3), 40, 240)]
    assert {c: mix.count(c) for c in set(mix)} == {
        cls: 5 * n for cls, n in streams.SERVE_CYCLE.items()}


def test_oracle_rollups_equal_the_reference_engine():
    """``verify`` re-aggregates rollup and AVG forms from one reference
    answer per family; the reference engine, asked each form directly,
    must say the same."""
    data = SSBGenerator(scale_factor=0.002, seed=42).generate()
    oracle = verify.Oracle(data)
    forms = {}
    for unit in islice(streams.drilldown_families(5), 20):
        for request in unit:
            if request.cls in verify.DERIVED:
                query = request.query
                forms.setdefault(
                    (request.root.name.split("#")[0], tuple(query.group_by),
                     query.aggregates[0].function), request)
    assert len(forms) > 50
    for request in forms.values():
        asked = oracle.session.execute(request.query).rows
        assert oracle.expected(request) == asked


@pytest.mark.parametrize("parent,change,better,word", [
    ([10, 10.2, 9.9, 10.1], [10.1, 10.0, 10.2, 9.9], "lower",
     "within bound"),
    ([10, 10.2, 9.9, 10.1], [13.0, 13.1, 12.9, 13.2], "lower", "worse"),
    ([10, 10.2, 9.9, 10.1], [8.0, 8.1, 7.9, 8.2], "lower", "better"),
    ([10, 14, 7, 12], [10.5, 9, 13, 8], "lower", "unresolved"),
    ([100, 102, 99, 101], [80, 81, 79, 82], "higher", "worse"),
])
def test_compare_verdicts(parent, change, better, word):
    assert compare.verdict(parent, change, better, 0.10)[0] == word


def test_fails_without_the_program(tmp_path):
    """In a directory with only ``BENCHMARK.json`` and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ssb_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
