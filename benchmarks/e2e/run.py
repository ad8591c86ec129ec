"""End-to-end benchmark: four SSB workloads through ``connect()``.

One command runs every workload in a fresh subprocess each, prints every
metric by name with its unit, checks returned rows against the reference
engine outside the timed window, and exits non-zero on any mismatch::

    python benchmarks/e2e/run.py                 # all workloads
    python benchmarks/e2e/run.py --trace 1       # per-layer numbers
    python benchmarks/e2e/run.py --workload ssb_warm --seed 7
    python benchmarks/e2e/run.py --repeat 5 --out results/e2e/a.json

``--workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark contract drives; its last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric names
and units come from ``BENCHMARK.json`` at the repository root, the one
place they are declared.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{Path(__file__).name}: no program to measure: "
             f"{ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

from repro.hdfs.filesystem import MiniDFS  # noqa: E402
from repro.hdfs.placement import CoLocatingPlacementPolicy  # noqa: E402
from repro.ssb.loader import load_for_clydesdale  # noqa: E402
from repro.ssb.queries import flight_of, ssb_queries  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import streams  # noqa: E402
from compare import spread  # noqa: E402
from harness import (  # noqa: E402
    FULL,
    QUICK,
    Profile,
    Sample,
    median,
    percentile,
)
from verify import Verdict, check_samples  # noqa: E402

SERVE_CHUNK = 50
STEP_NAMES = ("r1", "r2", "r3", "overload")


# --------------------------------------------------------------------- #
# Workloads.
# --------------------------------------------------------------------- #


def serve_chunks(seed: int) -> Iterator[list[streams.Request]]:
    """The serving mix in chunks, for replaying it through a closed
    loop in the traced run."""
    requests = streams.serve_requests(seed)
    return iter(lambda: list(islice(requests, SERVE_CHUNK)), [])


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seeded units the closed loop runs whole (a pass, a family).
    units: Callable[[int], Iterator[list[streams.Request]]]
    serve: bool = False
    #: ``connect(aggstore=...)`` of the in-process session; None keeps
    #: the shipped default (on).
    aggstore: bool | None = None
    #: Invalidate every cache before every request.
    cold: bool = False
    #: Invalidate every cache after every n-th unit.
    invalidate_every: int | None = None
    #: The same few queries over and over: latency quantiles are taken
    #: relative to each query's median, and every request keeps its rows.
    fixed_queries: bool = False
    #: ``queries_per_s`` and ``cpu_ms_per_query`` count the requests
    #: served by reuse only: the ~1 % that execute take most of the
    #: window's time and would make both a reading of the engine, which
    #: the SSB workloads already give.
    reuse_only: bool = False

    def scale_factor(self, profile: Profile) -> float:
        return profile.serve_sf if self.serve else profile.inprocess_sf

    def keeps_rows(self, profile: Profile
                   ) -> Callable[[streams.Request], bool]:
        """Which requests keep their rows for the oracle: all of them
        where the queries are fixed; elsewhere every request that has to
        execute and every n-th of the others (memory)."""
        if self.fixed_queries:
            return lambda request: True
        turn = count()
        return lambda request: (request.cls in ("fresh", "cold_shape")
                                or next(turn) % profile.keep_every == 0)


WORKLOADS = {w.name: w for w in (
    Workload("ssb_warm", streams.ssb_passes, aggstore=False,
             fixed_queries=True),
    Workload("ssb_cold", streams.ssb_passes, aggstore=False, cold=True,
             fixed_queries=True),
    Workload("drilldown", streams.drilldown_families,
             invalidate_every=streams.INVALIDATE_EVERY, reuse_only=True),
    Workload("serve_open", serve_chunks, serve=True),
)}


# --------------------------------------------------------------------- #
# Reports.
# --------------------------------------------------------------------- #


def stream_facts(workload: Workload, seed: int,
                 samples: list[Sample]) -> dict[str, Any]:
    """Digest of the generated stream's head and the class counts,
    intended against actual provenance."""
    head = [r for unit in islice(workload.units(seed), 3) for r in unit]
    return {
        "digest": streams.digest(head),
        "intended": dict(Counter(s.request.cls for s in samples)),
        "actual": dict(Counter(s.source for s in samples)),
        "intended_to_actual": dict(Counter(
            f"{s.request.cls}->{s.source}" for s in samples)),
    }


def latency_facts(samples: list[Sample]) -> dict[str, Any]:
    """Medians by flight and by actual provenance, with their counts."""
    good = [s for s in samples if s.error is None]
    facts: dict[str, Any] = {}
    for flight in (1, 2, 3, 4):
        values = [s.latency_ms for s in good
                  if s.request.cls == f"flight{flight}"]
        if values:
            facts[f"flight{flight}_p50_ms"] = median(values)
            facts[f"flight{flight}_n"] = len(values)
    hits = [s.latency_ms for s in good if s.reused]
    execs = [s.latency_ms for s in good if not s.reused]
    facts.update(hit_p50_ms=median(hits), hit_n=len(hits),
                 exec_p50_ms=median(execs), exec_n=len(execs),
                 reuse_share=len(hits) / len(good) if good else 0.0)
    return facts


def finish(workload: Workload, seed: int, trace: int, spec: dict,
           values: dict[str, float], samples: list[Sample],
           verdict: Verdict, extra: dict[str, Any],
           other_failures: int = 0) -> dict[str, Any]:
    """Assemble the run's report; the metrics are exactly the ones
    ``BENCHMARK.json`` declares for this mode."""
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"{workload.name}: metrics not measured: {missing}")
    errors = sum(1 for s in samples if s.error is not None)
    failed = errors + verdict.mismatched + other_failures
    # A class none of whose requests reached the oracle is not correct.
    unverified = sorted({s.request.cls for s in samples}
                        - set(verdict.classes))
    extra = dict(extra)
    extra["failed_share"] = failed / max(1, len(samples))
    extra["errors"] = [s.error for s in samples if s.error][:5]
    extra["verify"] = {
        "checked": verdict.checked, "mismatched": verdict.mismatched,
        "oracle_runs": verdict.oracle_runs, "classes": verdict.classes,
        "unverified_classes": unverified,
        "first_mismatch": verdict.first_mismatch}
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "correct": failed == 0 and not unverified,
        "attempted": max(1, len(samples)), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
        "extra": extra}


def print_report(report: dict[str, Any]) -> None:
    name = report["workload"]
    for metric, entry in report["metrics"].items():
        print(f"{name:<11} {metric:<32} = {entry['value']:.6g} "
              f"{entry['unit']}")
    for key, value in report["extra"].items():
        print(f"{name:<11} . {key}: {json.dumps(value, default=str)}")
    print(f"{name:<11} correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")


# --------------------------------------------------------------------- #
# End-to-end runs (tracing off).
# --------------------------------------------------------------------- #


def latency_quantiles(workload: Workload, samples: list[Sample]
                      ) -> tuple[float, float, int]:
    """``query_p50_ms``, ``query_p90_ms`` and how many samples lie
    beyond the latter.

    On the SSB workloads the 13 queries cost 7 to 70 ms, so a quantile
    of the pooled requests would sit on the edge between two queries and
    jump with the noise.  There the median is the median of the 13
    queries' own medians, and the 90th percentile is taken over every
    request's latency *relative to its query's median* and scaled by
    that median of medians: what the slowest tenth of the requests cost,
    for the typical query.  Elsewhere every request counts as it is.
    """
    good = [s for s in samples if s.error is None]
    if not workload.fixed_queries:
        latencies = [s.latency_ms for s in good]
        p90 = percentile(latencies, 0.90)
        return median(latencies), p90, sum(v > p90 for v in latencies)
    by_query: dict[str, list[float]] = {}
    for sample in good:
        by_query.setdefault(sample.request.query.name, []).append(
            sample.latency_ms)
    typical = {name: median(values) for name, values in by_query.items()}
    p50 = median(typical.values())
    ratios = [s.latency_ms / typical[s.request.query.name] for s in good]
    r90 = percentile(ratios, 0.90)
    return p50, p50 * r90, sum(r > r90 for r in ratios)


def unit_medians(workload: Workload, samples: list[Sample]
                 ) -> tuple[float, float, int]:
    """``queries_per_s`` and ``cpu_ms_per_query`` of the closed loop, and
    the requests they count.  Each unit (a pass, a family) gives one
    reading — its requests over the time spent waiting for their
    answers, and the CPU those took per request — and the median unit is
    reported, so a few slow seconds of the host or one family with more
    executes than the others do not move it."""
    by_unit: dict[int, list[Sample]] = {}
    for sample in samples:
        if sample.error is None and (sample.reused
                                     or not workload.reuse_only):
            by_unit.setdefault(sample.unit, []).append(sample)
    rates = [len(unit) * 1e3 / sum(s.latency_ms for s in unit)
             for unit in by_unit.values()]
    cpus = [sum(s.cpu_ms for s in unit) / len(unit)
            for unit in by_unit.values()]
    return (median(rates), median(cpus),
            sum(len(unit) for unit in by_unit.values()))


def e2e_closed(workload: Workload, profile: Profile, seed: int,
               seconds: float | None, spec: dict) -> dict[str, Any]:
    setup, setup_times = harness.repeated_setup(
        lambda: harness.setup_inprocess(profile.inprocess_sf,
                                        workload.aggstore),
        profile.setup_reps)
    session = setup.session
    units = workload.units(seed)
    if seconds is None:
        units = islice(units, profile.replay_units)

    def invalidate_periodically(count: int) -> None:
        if (count + 1) % workload.invalidate_every == 0:
            session.invalidate_cache()

    spin = harness.spin_ms()
    samples, wall = harness.run_closed(
        session, units, seconds=seconds,
        before_request=session.invalidate_cache if workload.cold else None,
        after_unit=(invalidate_periodically
                    if workload.invalidate_every else None),
        keep_rows=workload.keeps_rows(profile))
    rss = harness.tree_peak_rss_mb()
    setup.close()
    verdict = check_samples(setup.data, samples)
    good = sum(1 for s in samples if s.error is None)
    p50, p90, beyond = latency_quantiles(workload, samples)
    rate, cpu_ms, counted = unit_medians(workload, samples)
    values = {
        "setup_s": median(setup_times), "query_p50_ms": p50,
        "query_p90_ms": p90, "queries_per_s": rate,
        "cpu_ms_per_query": cpu_ms, "peak_rss_mb": rss}
    extra = {
        "samples": good, "beyond_p90": beyond,
        "rate_counts": counted, "units": samples[-1].unit + 1,
        "window_s": wall, "setup_times_s": setup_times,
        "setup_parts_s": setup.timings, "spin_ms": spin,
        **latency_facts(samples), **stream_facts(workload, seed, samples)}
    return finish(workload, seed, 0, spec, values, samples, verdict,
                  extra)


def reload_recovery_s(step: harness.StepResult, called_s: float,
                      generation: int, workers: int) -> float | None:
    """Seconds from the ``reload_catalog`` call until every worker has
    answered a query at ``generation``; None if one never did."""
    first: dict[int, float] = {}
    for sample in step.samples:
        if sample.worker is not None and sample.generation == generation:
            done = step.origin_s + sample.done_s
            first[sample.worker] = min(first.get(sample.worker, done), done)
    if len(first) < workers:
        return None
    return max(first.values()) - called_s


def step_facts(step: harness.StepResult) -> dict[str, Any]:
    latencies = step.latencies()
    return {
        "rate_qps": step.rate, "due": step.due, "sent": len(step.samples),
        "p50_ms": median(latencies), "p90_ms": step.p90_ms(),
        "p99_ms": percentile(latencies, 0.99),
        "late_p90_ms": percentile([s.late_ms for s in step.samples], 0.9),
        "achieved_qps": step.achieved_qps(),
        "meets_limit": step.meets_limit()}


def run_steps(setup: harness.Setup, requests: Iterator[streams.Request],
              profile: Profile, window_s: float, keep_rows,
              **kwargs: Any
              ) -> tuple[dict[str, harness.StepResult], dict[str, Any]]:
    """The four fixed-rate steps, then a reload step at r1; each gets
    its share of ``window_s``.  Returns the steps and the reload's
    ``{"call_s", "recovery_s"}``."""
    lengths = [share * window_s for share in profile.step_shares]
    steps: dict[str, harness.StepResult] = {}
    for name, rate, length in zip(STEP_NAMES, profile.rates, lengths):
        steps[name] = harness.run_open_step(
            name, setup.senders, requests, rate, length,
            keep_rows=keep_rows, **kwargs)
    called = time.perf_counter()
    generation = setup.frontend.reload_catalog(setup.data)
    returned = time.perf_counter()
    steps["reload"] = harness.run_open_step(
        "reload", setup.senders, requests, profile.rates[0], lengths[-1],
        keep_rows=keep_rows, **kwargs)
    return steps, {
        "call_s": returned - called,
        "recovery_s": reload_recovery_s(steps["reload"], called,
                                        generation,
                                        setup.frontend.workers)}


def serve_facts(steps: dict[str, harness.StepResult],
                reload: dict[str, Any]) -> dict[str, Any]:
    passing = [steps[name].rate for name in STEP_NAMES
               if steps[name].meets_limit()]
    return {
        "steps": {name: step_facts(step) for name, step in steps.items()},
        "latency_limit_ms": harness.LATENCY_LIMIT_MS,
        "max_rate_ok_qps": max(passing, default=0.0),
        "backlog_max": max(s.due - len(s.samples)
                           for s in steps.values()),
        "reload": reload}


def e2e_serve(workload: Workload, profile: Profile, seed: int,
              seconds: float | None, spec: dict) -> dict[str, Any]:
    setup, setup_times = harness.repeated_setup(
        lambda: harness.setup_frontend(profile.serve_sf),
        profile.setup_reps)
    window_s = 5.0 if seconds is None else seconds
    pids = setup.worker_pids()
    spin = harness.spin_ms()
    cpu_before = harness.tree_cpu_s(pids)
    steps, reload = run_steps(setup, streams.serve_requests(seed),
                              profile, window_s,
                              workload.keeps_rows(profile))
    cpu = harness.tree_cpu_s(pids) - cpu_before
    rss = harness.tree_peak_rss_mb(pids)
    frontend_stats = setup.frontend.stats()
    setup.close()
    samples = [s for step in steps.values() for s in step.samples]
    verdict = check_samples(setup.data, samples)
    good = sum(1 for s in samples if s.error is None)
    at_r2 = steps["r2"].latencies()
    p90 = percentile(at_r2, 0.90)
    values = {
        "setup_s": median(setup_times), "query_p50_ms": median(at_r2),
        "query_p90_ms": p90,
        "queries_per_s": steps["overload"].achieved_qps(),
        "cpu_ms_per_query": cpu * 1e3 / max(1, good), "peak_rss_mb": rss}
    extra = {
        "samples": len(at_r2), "beyond_p90": sum(v > p90 for v in at_r2),
        "setup_times_s": setup_times, "setup_parts_s": setup.timings,
        "spin_ms": spin, "rejected": frontend_stats.rejected,
        "retries": frontend_stats.retries,
        **serve_facts(steps, reload),
        **latency_facts([s for name in STEP_NAMES[:3]
                         for s in steps[name].samples]),
        **stream_facts(workload, seed, samples)}
    return finish(workload, seed, 0, spec, values, samples, verdict,
                  extra)


# --------------------------------------------------------------------- #
# The traced run: per-layer numbers.
# --------------------------------------------------------------------- #


class TracerTotals:
    """What the shipped tracer and stats objects say about a replay."""

    def __init__(self) -> None:
        self.phases: Counter = Counter()
        self.self_s = 0.0
        self.execution: Counter = Counter()

    def __call__(self, sample: Sample, session: Any) -> None:
        tree = session.last_trace
        if tree is not None:
            self.phases.update(tree.phase_totals())
            self.self_s += layers.tracer_self_s(tree)
        stats = session.stats().execution
        if sample.source == "executed" and stats is not None:
            self.execution.update(
                rows_probed=stats.rows_probed,
                rows_matched=stats.rows_matched,
                ht_builds=stats.ht_builds,
                bytes_read=stats.hdfs_bytes_read,
                rowgroups_pruned=stats.rowgroups_pruned)


def walk_all(recorder: layers.SpanRecorder, session: Any, data: Any,
             cold: bool) -> tuple[dict[str, float], dict[str, Any], int]:
    """Walk the 13 SSB queries through the layers, run each as one job,
    and probe the hash tables; returns (metric values, per-query facts,
    queries whose walk disagreed with ``session.execute``)."""
    engine = session.engine
    ht_cache = None if cold else session.cache
    totals: Counter = Counter()
    hashtable: Counter = Counter()
    per_query: dict[str, Any] = {}
    job_by_flight: Counter = Counter()
    wrong = 0
    for name, query in ssb_queries().items():
        walk = layers.walk_query(recorder, engine, query, ht_cache)
        job_s, job = layers.run_job(engine, query, ht_cache)
        expected = session.execute(query).rows
        wrong += walk.rows != expected
        own = recorder.self_times(request_id=name)
        walked = sum(own.get(layer, 0.0) for layer in layers.WALK_LAYERS)
        per_query[name] = {
            "rows_equal": walk.rows == expected,
            "job_ms": job_s * 1e3, "walk_ms": walked * 1e3,
            "walk_over_job": walked / job_s,
            "map_share_of_job": own.get("joinjob.map", 0.0) / job_s,
            "self_ms": {layer: own.get(layer, 0.0) * 1e3
                        for layer in layers.WALK_LAYERS}}
        totals.update({layer: own.get(layer, 0.0)
                       for layer in layers.WALK_LAYERS})
        totals.update(job_s=job_s, walk_s=walked,
                      map_tasks=job.num_map_tasks,
                      pairs=job.map_output_records,
                      scan_rows=sum(b.num_rows for b in walk.blocks))
        job_by_flight[flight_of(name)] += job_s
        hashtable.update(layers.probe_hash_tables(engine, data, query,
                                                  walk))
        if name == "Q1.1":
            filter_s, filter_rows = layers.probe_filter(query, walk)
    values = {
        "planner.plan_ms": totals["planner.plan"] * 1e3,
        "cif.splits_ms": totals["cif.splits"] * 1e3,
        "cif.scan_ms": totals["cif.scan"] * 1e3,
        "cif.scan_rows_per_s": totals["scan_rows"] / totals["cif.scan"],
        "joinjob.init_ms": totals["joinjob.init"] * 1e3,
        "joinjob.map_ms": totals["joinjob.map"] * 1e3,
        "joinjob.map_rows_per_s": (totals["scan_rows"]
                                   / totals["joinjob.map"]),
        "joinjob.reduce_ms": totals["joinjob.reduce"] * 1e3,
        "shuffle.merge_ms": totals["shuffle.merge"] * 1e3,
        "shuffle.pairs": totals["pairs"],
        "result.sort_ms": totals["result.sort"] * 1e3,
        "runtime.job_ms": totals["job_s"] * 1e3,
        "runtime.overhead_ms": (totals["job_s"] - totals["walk_s"]) * 1e3,
        "runtime.walk_over_job": totals["walk_s"] / totals["job_s"],
        "runtime.map_tasks": totals["map_tasks"],
        "hashtable.build_ms": hashtable["build_s"] * 1e3,
        "hashtable.entries": hashtable["entries"],
        "hashtable.probe_rows_per_s": (hashtable["probe_rows"]
                                       / hashtable["probe_s"]),
        "hashtable.vectorized_share": (hashtable["vectorized"]
                                       / hashtable["tables"]),
        "expressions.filter_rows_per_s": filter_rows / filter_s,
    }
    for flight in (1, 2, 3, 4):
        values[f"runtime.flight{flight}_job_ms"] = \
            job_by_flight[flight] * 1e3
    return values, per_query, wrong


def probe_requests() -> list[streams.Request]:
    """The 13 SSB queries, each under a fact predicate nobody used, so
    whoever gets one has to execute it."""
    ordinal = streams.UNIQUE_BASE // 2
    fenced = [streams.fresh_query(query, ordinal + i)
              for i, query in enumerate(ssb_queries().values())]
    return [streams.Request("fresh", ordinal + i, query, query)
            for i, query in enumerate(fenced)]


def probe_frontend(setup: harness.Setup, inprocess: list[Sample]
                   ) -> tuple[dict[str, float], list[Sample]]:
    """What ``Frontend(workers=2)`` adds on identical requests:
    :func:`probe_requests` through the frontend against the same
    requests' in-process samples, then byte-identical repeats for the
    frontend's hit path, the pipe round trip, and one catalog reload."""
    frontend, client = setup.frontend, setup.senders[0]
    fresh = [sample.request for sample in inprocess]
    through, _ = harness.run_closed(client, [fresh])
    repeats, _ = harness.run_closed(client, [fresh] * 4,
                                    keep_rows=lambda r: False)
    warm_builds = sum(s.ht_builds for s in through if s.warm_route)
    round_trips = []
    for _ in range(20):
        start = time.perf_counter()
        frontend.worker_stats()
        round_trips.append((time.perf_counter() - start) * 1e6
                           / frontend.workers)
    called = time.perf_counter()
    generation = frontend.reload_catalog(setup.data)
    call_s = time.perf_counter() - called
    pending = set(range(frontend.workers))
    for query in list(ssb_queries().values()) * 2:
        client.execute(query)
        summary = client.last_summary
        if summary.get("generation") == generation:
            pending.discard(summary.get("worker"))
        if not pending:
            break
    recovery_s = time.perf_counter() - called
    return {
        "frontend.hit_us": median(
            s.latency_ms for s in repeats if s.reused) * 1e3,
        "frontend.exec_overhead_ms": (
            median(s.latency_ms for s in through if not s.reused)
            - median(s.latency_ms for s in inprocess if not s.reused)),
        "frontend.warm_route_builds": warm_builds,
        "frontend.reload_call_s": call_s,
        "frontend.reload_recovery_s": recovery_s,
        "worker.pipe_rtt_us": median(round_trips),
    }, through


def frontend_counters(frontend: Any) -> dict[str, float]:
    """``Frontend.stats()`` and ``result_cache_stats()`` as metrics."""
    stats = frontend.stats()
    results = frontend.result_cache_stats()
    probes = results.hits + results.misses
    return {
        "frontend.rejected": stats.rejected,
        "frontend.retries": stats.retries,
        "frontend.routed_warm": stats.routed_warm,
        "frontend.routed_cold": stats.routed_cold,
        "frontend.result_cache_hits": results.hits,
        "frontend.result_cache_hit_ratio": (results.hits / probes
                                            if probes else 0.0),
    }


def traced_steps(setup: harness.Setup, recorder: layers.SpanRecorder,
                 workload: Workload, profile: Profile, seed: int,
                 window_s: float) -> tuple[dict[str, Any], list[Sample]]:
    """``serve_open`` only: the open-loop steps with the frontend's
    tracer on and benchmark spans for due -> sent -> replied."""
    def record(sample: Sample, session: Any) -> None:
        request_id = f"{sample.step}:{sample.due_s:.6f}"
        origin = time.perf_counter() - sample.done_s
        whole = recorder.add(
            "request", origin + sample.due_s, origin + sample.done_s,
            request_id, cls=sample.request.cls, source=sample.source,
            step=sample.step)
        sent = origin + sample.due_s + sample.late_ms / 1e3
        recorder.add("due_to_sent", origin + sample.due_s, sent,
                     request_id, parent=whole)
        recorder.add("sent_to_replied", sent, origin + sample.done_s,
                     request_id, parent=whole)

    steps, reload = run_steps(
        setup, streams.serve_requests(seed), profile, window_s,
        workload.keeps_rows(profile), trace=True, on_answer=record)
    samples = [s for step in steps.values() for s in step.samples]
    return serve_facts(steps, reload), samples


def layers_run(workload: Workload, profile: Profile, seed: int,
               seconds: float | None, spec: dict) -> dict[str, Any]:
    recorder = layers.SpanRecorder()
    sf = workload.scale_factor(profile)
    keep_rows = workload.keeps_rows(profile)

    inproc = harness.setup_inprocess(sf, workload.aggstore)
    session, data = inproc.session, inproc.data
    # The load that connect() did inside, again and alone, as connect
    # does it (4 nodes, 25 000-row groups), to time it.
    load_s, _ = layers.timed(
        load_for_clydesdale,
        MiniDFS(num_nodes=4, placement=CoLocatingPlacementPolicy()),
        data, row_group_size=25_000)

    # Replays on the in-process session: units A untraced, B traced.
    units = list(islice(workload.units(seed), 2 * profile.replay_units))
    replay_a = units[:profile.replay_units]
    replay_b = units[profile.replay_units:]
    before = session.invalidate_cache if workload.cold else None
    untraced, _ = harness.run_closed(session, replay_a, keep_rows=keep_rows,
                                     before_request=before)
    cache_before = session.cache_stats()
    agg_before = session.stats().aggstore
    totals = TracerTotals()
    traced, _ = harness.run_closed(
        session, replay_b, keep_rows=keep_rows, before_request=before,
        trace=True, on_answer=totals, recorder=recorder)
    cache_after = session.cache_stats()
    agg_after = session.stats().aggstore

    # The layers one by one, still in-process.
    walk_values, per_query, walk_wrong = walk_all(recorder, session, data,
                                                 workload.cold)
    executed = {}
    for sample in untraced:
        query = sample.request.query
        if (sample.rows is not None and query.group_by
                and query.limit is None
                and all(a.function != "avg" for a in query.aggregates)):
            executed.setdefault(streams.result_key(query),
                                (query, sample.rows))
    aggstore = layers.probe_aggstore(list(executed.values())[:12])
    routing = layers.probe_routing(
        [r.query for unit in replay_a for r in unit][:200])
    harness.warm_up(session)
    probed, _ = harness.run_closed(session, [probe_requests()])
    invalidate_s, _ = layers.timed(session.invalidate_cache)

    # The frontend comes last: once this process has forked workers its
    # own in-process timings read slower.
    front = harness.setup_frontend(sf)
    frontend_values, through = probe_frontend(front, probed)
    samples = untraced + traced + probed + through
    extra: dict[str, Any] = {}
    if workload.serve:
        # The steps get a frontend of their own: the probe reloaded the
        # first one's catalog.
        front.close()
        front = harness.setup_frontend(sf)
        window_s = 5.0 if seconds is None else seconds / 2.0
        serve, stepped = traced_steps(front, recorder, workload, profile,
                                      seed, window_s)
        extra.update(serve)
        samples += stepped
    frontend_values.update(frontend_counters(front.frontend))
    front.close()
    inproc.close()

    def delta(after: Any, earlier: Any, name: str) -> int:
        if after is None:
            return 0
        return getattr(after, name) - getattr(earlier, name)

    hits = delta(cache_after, cache_before, "hits")
    misses = delta(cache_after, cache_before, "misses")
    agg = {name: delta(agg_after, agg_before, name)
           for name in ("hits_exact", "hits_rollup", "misses", "declined")}
    agg_probes = agg["hits_exact"] + agg["hits_rollup"] + agg["misses"]
    facts = latency_facts(untraced)
    values = {
        "datagen.generate_s": inproc.timings["generate_s"],
        "loader.load_s": load_s,
        "worker.spawn_s": front.timings["connect_s"],
        **walk_values,
        **{f"trace.{phase}_ms": totals.phases[phase] * 1e3
           for phase in ("scan", "build", "probe", "shuffle", "aggregate",
                         "sort")},
        "trace.overhead_ratio": (
            latency_quantiles(workload, traced)[0]
            / latency_quantiles(workload, untraced)[0]),
        "session.self_ms": totals.self_s * 1e3,
        "cif.bytes_read": totals.execution["bytes_read"],
        "cif.rowgroups_pruned": totals.execution["rowgroups_pruned"],
        "joinjob.rows_probed": totals.execution["rows_probed"],
        "joinjob.rows_matched": totals.execution["rows_matched"],
        "joinjob.ht_builds": totals.execution["ht_builds"],
        "htcache.hits": hits,
        "htcache.misses": misses,
        "htcache.hit_ratio": (hits / (hits + misses)
                              if hits + misses else 0.0),
        "htcache.bytes": cache_after.bytes_cached,
        "htcache.invalidate_us": invalidate_s * 1e6,
        **{f"aggstore.{name}": value for name, value in aggstore.items()},
        **{f"aggstore.{name}": value for name, value in agg.items()},
        "aggstore.hit_ratio": ((agg["hits_exact"] + agg["hits_rollup"])
                               / agg_probes if agg_probes else 0.0),
        **{f"routing.{name}": value for name, value in routing.items()},
        **frontend_values,
        "workload.exec_p50_ms": facts["exec_p50_ms"],
        "workload.reuse_share": facts["reuse_share"],
        "host.spin_ms": median(harness.spin_ms() for _ in range(5)),
        "host.nproc": os.cpu_count(),
        "sim.query_s_total": inproc.timings["sim_s"],
    }
    verdict = check_samples(data, samples)
    trace_path = ROOT / "results" / "e2e" / \
        f"trace-{workload.name}-{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(recorder.to_chrome_trace()))
    extra.update(
        walk=per_query, walk_mismatches=walk_wrong,
        chrome_trace=str(trace_path.relative_to(ROOT)),
        spans=len(recorder.spans), **facts,
        **stream_facts(workload, seed, untraced + traced))
    return finish(workload, seed, 1, spec, values, samples, verdict,
                  extra, other_failures=walk_wrong)


# --------------------------------------------------------------------- #
# Command line.
# --------------------------------------------------------------------- #


def run_one(args: argparse.Namespace, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    profile = QUICK if args.quick else FULL
    seconds = None if args.quick else float(args.seconds)
    if args.trace:
        measure = layers_run
    else:
        measure = e2e_serve if workload.serve else e2e_closed
    report = measure(workload, profile, args.seed, seconds, spec)
    print_report(report)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, default=str))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def summarize(runs: list[dict]) -> dict[str, dict[str, dict]]:
    """``{workload: {metric: {median, q1, q3, spread, unit, n}}}``."""
    grouped: dict[str, dict[str, list]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            grouped.setdefault(run["workload"], {}).setdefault(
                metric, []).append(entry["value"])
            units[metric] = entry["unit"]
    return {workload: {metric: {**spread(values), "unit": units[metric],
                                "n": len(values)}
                       for metric, values in metrics.items()}
            for workload, metrics in grouped.items()}


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload (or the one named), ``--repeat`` times, each run
    in a fresh subprocess."""
    names = [w["name"] for w in spec["workloads"]]
    out_dir = ROOT / "results" / "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    runs: list[dict] = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            report_path = out_dir / f"run-{name}-{os.getpid()}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--out", str(report_path)]
            command += ["--quick"] if args.quick else []
            done = subprocess.run(command, cwd=ROOT)
            if not report_path.exists():
                print(f"{name}: run failed with exit code "
                      f"{done.returncode}", file=sys.stderr)
                status = 1
                continue
            report = json.loads(report_path.read_text())
            report_path.unlink()
            report["repeat"] = repeat
            runs.append(report)
            if done.returncode != 0 or not report["correct"]:
                status = 1
    summary = summarize(runs)
    print("\n== summary: median [q1 .. q3] spread, over "
          f"{args.repeat} run(s) ==")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{workload:<11} {metric:<32} {s['median']:.6g} "
                  f"{s['unit']} [{s['q1']:.6g} .. {s['q3']:.6g}] "
                  f"spread {s['spread']:.3f} (n={s['n']})")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "runs": runs,
             "summary": summary}, default=str))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: SF0.002, 2 units, 1-s steps")
    parser.add_argument("--repeat", type=int, default=None,
                        help="run each workload N times and summarize")
    parser.add_argument("--out", help="write the full report as JSON")
    args = parser.parse_args(argv)
    if args.workload is not None and args.repeat is None:
        return run_one(args, spec)
    args.repeat = args.repeat or 1
    if args.workload is not None:
        spec = {**spec, "workloads": [w for w in spec["workloads"]
                                      if w["name"] == args.workload]}
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
