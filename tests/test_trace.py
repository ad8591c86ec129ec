"""Unit tests for the span tracer: lifecycle, threading, well-formedness
checks, and the three exporters."""

from __future__ import annotations

import json
import threading

import pytest

from repro.trace.export import flame_summary, phase_totals, to_chrome_trace, \
    to_json
from repro.trace.tracer import (
    CAT_JOB,
    CAT_PHASE,
    CAT_STEP,
    CAT_TASK,
    CAT_THREAD,
    NULL_TRACER,
    NullSpan,
    Span,
    SpanTree,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OPEN,
    STATUS_RETRIED,
    TraceError,
    Tracer,
    tracer_for,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# --------------------------------------------------------------------- #
# Lifecycle and parentage
# --------------------------------------------------------------------- #

def test_nested_spans_chain_via_threadlocal_stack():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.start("job", CAT_JOB)
    inner = tracer.start("map_phase", CAT_STEP)
    leaf = tracer.start("scan", CAT_PHASE)
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert leaf.parent_id == inner.span_id
    leaf.finish()
    inner.finish()
    outer.finish()
    assert [s.status for s in tracer.spans()] == [STATUS_OK] * 3
    assert tracer.open_spans() == []


def test_context_manager_marks_failure_on_exception():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("job", CAT_JOB):
            with tracer.span("map_task", CAT_TASK):
                raise RuntimeError("boom")
    job, task = tracer.spans()
    assert task.status == STATUS_FAILED
    assert job.status == STATUS_FAILED
    assert tracer.open_spans() == []


def test_finish_twice_raises():
    tracer = Tracer(clock=FakeClock())
    span = tracer.start("job", CAT_JOB)
    span.finish()
    with pytest.raises(TraceError):
        span.finish()


def test_explicit_status_survives_finish():
    tracer = Tracer(clock=FakeClock())
    span = tracer.start("map_task", CAT_TASK)
    span.finish(STATUS_RETRIED)
    assert span.status == STATUS_RETRIED


def test_finish_pops_abandoned_children_from_stack():
    # Finishing a parent whose child was never finished must not leave
    # the stack pointing at the dead child.
    tracer = Tracer(clock=FakeClock())
    outer = tracer.start("job", CAT_JOB)
    tracer.start("scan", CAT_PHASE)  # leaked on purpose
    outer.finish()
    fresh = tracer.start("sort", CAT_PHASE)
    assert fresh.parent_id is None
    assert tracer.tree().violations()  # the leak is visible


def test_attributes_and_duration():
    clock = FakeClock(step=0.5)
    tracer = Tracer(clock=clock)
    span = tracer.start("probe", CAT_PHASE)
    span.set("rows", 1024)
    assert span.duration_s == 0.0  # unfinished
    span.finish()
    assert span.attrs == {"rows": 1024}
    assert span.duration_s == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# Threading
# --------------------------------------------------------------------- #

def test_cross_thread_children_use_explicit_parent():
    tracer = Tracer()
    task = tracer.start("map_task", CAT_TASK)
    seen = []

    def worker():
        span = tracer.start("join_thread", CAT_THREAD, parent=task)
        inner = tracer.start("probe", CAT_PHASE)  # stack-local nesting
        seen.append((span, inner))
        inner.finish()
        span.finish()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    task.finish()

    tree = tracer.tree()
    assert tree.violations() == []
    for span, inner in seen:
        assert span.parent_id == task.span_id
        assert inner.parent_id == span.span_id
        assert span.thread != task.thread


def test_concurrent_span_ids_are_unique():
    tracer = Tracer()
    per_thread = 50

    def worker():
        for _ in range(per_thread):
            tracer.start("probe", CAT_PHASE).finish()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.spans()
    assert len(spans) == 8 * per_thread
    assert len({s.span_id for s in spans}) == len(spans)


# --------------------------------------------------------------------- #
# Null tracer (flag off)
# --------------------------------------------------------------------- #

def test_null_tracer_hands_out_one_shared_span():
    a = NULL_TRACER.span("anything", CAT_PHASE)
    b = NULL_TRACER.start("else", CAT_JOB)
    assert a is b
    assert isinstance(a, NullSpan)
    a.set("ignored", 1)
    a.finish()
    a.finish()  # no double-finish bookkeeping for the null span
    with NULL_TRACER.span("ctx") as s:
        assert s is a
    assert NULL_TRACER.num_spans() == 0
    assert len(NULL_TRACER.tree()) == 0


def test_tracer_for_defaults_to_null():
    class Conf:
        pass

    conf = Conf()
    assert tracer_for(conf) is NULL_TRACER
    conf.tracer = Tracer()
    assert tracer_for(conf) is conf.tracer


# --------------------------------------------------------------------- #
# SpanTree checks
# --------------------------------------------------------------------- #

def _span(span_id, parent_id, name, category, thread, start, end,
          status=STATUS_OK):
    span = Span(None, span_id, parent_id, name, category, thread)
    span.start_s = start
    span.end_s = end
    span.status = status
    return span


def test_violations_on_sound_tree_is_empty():
    tree = SpanTree([
        _span(1, None, "job", CAT_JOB, "main", 0.0, 10.0),
        _span(2, 1, "map_phase", CAT_STEP, "main", 1.0, 6.0),
        _span(3, 2, "scan", CAT_PHASE, "main", 1.0, 3.0),
        _span(4, 2, "probe", CAT_PHASE, "worker", 1.0, 6.0),
    ])
    assert tree.violations() == []
    assert tree.roots()[0].name == "job"
    assert [s.name for s in tree.children(tree.roots()[0])] == ["map_phase"]


def test_violations_flags_open_span():
    open_span = _span(1, None, "job", CAT_JOB, "main", 0.0, None,
                      status=STATUS_OPEN)
    problems = SpanTree([open_span]).violations()
    assert any("never finished" in p for p in problems)


def test_violations_flags_negative_interval():
    problems = SpanTree(
        [_span(1, None, "job", CAT_JOB, "main", 5.0, 1.0)]).violations()
    assert any("ends before it starts" in p for p in problems)


def test_violations_flags_child_escaping_parent():
    tree = SpanTree([
        _span(1, None, "job", CAT_JOB, "main", 0.0, 10.0),
        _span(2, 1, "scan", CAT_PHASE, "main", 5.0, 12.0),
    ])
    assert any("escapes parent" in p for p in tree.violations())


def test_violations_flags_unknown_parent():
    problems = SpanTree(
        [_span(2, 99, "scan", CAT_PHASE, "main", 0.0, 1.0)]).violations()
    assert any("unknown parent" in p for p in problems)


def test_violations_flags_samethread_children_oversumming():
    tree = SpanTree([
        _span(1, None, "job", CAT_JOB, "main", 0.0, 4.0),
        _span(2, 1, "scan", CAT_PHASE, "main", 0.0, 3.0),
        _span(3, 1, "sort", CAT_PHASE, "main", 1.0, 4.0),
    ])
    assert any("sum to" in p for p in tree.violations())


def test_samethread_sum_rule_exempts_other_threads():
    # Two concurrent worker spans may together exceed the parent's
    # wall-clock (thread-seconds); that is legal.
    tree = SpanTree([
        _span(1, None, "map_task", CAT_TASK, "main", 0.0, 4.0),
        _span(2, 1, "probe", CAT_PHASE, "w1", 0.0, 4.0),
        _span(3, 1, "probe", CAT_PHASE, "w2", 0.0, 4.0),
    ])
    assert tree.violations() == []
    assert tree.phase_totals() == {"probe": pytest.approx(8.0)}


def test_phase_totals_only_counts_phase_category():
    tree = SpanTree([
        _span(1, None, "job", CAT_JOB, "main", 0.0, 10.0),
        _span(2, 1, "scan", CAT_PHASE, "main", 0.0, 2.0),
        _span(3, 1, "scan", CAT_PHASE, "main", 2.0, 5.0),
        _span(4, 1, "sort", CAT_STEP, "main", 5.0, 9.0),  # step, not phase
    ])
    assert tree.phase_totals() == {"scan": pytest.approx(5.0)}


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #

def _sample_tree():
    tracer = Tracer(clock=FakeClock(step=0.25))
    with tracer.span("job", CAT_JOB) as job:
        job.set("query", "Q2.1")
        with tracer.span("scan", CAT_PHASE) as scan:
            scan.set("bytes", 4096)
        with tracer.span("probe", CAT_PHASE):
            pass
    return tracer.tree()


def test_to_json_roundtrips_through_json():
    tree = _sample_tree()
    doc = json.loads(json.dumps(to_json(tree)))
    assert len(doc["spans"]) == len(tree)
    by_name = {s["name"]: s for s in doc["spans"]}
    assert by_name["scan"]["parent"] == by_name["job"]["id"]
    assert by_name["scan"]["attrs"] == {"bytes": 4096}
    assert all(s["status"] == STATUS_OK for s in doc["spans"])


def test_chrome_trace_events_validate():
    tree = _sample_tree()
    doc = json.loads(json.dumps(to_chrome_trace(tree)))
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(tree)
    assert meta, "expected thread_name metadata events"
    for event in complete:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    assert doc["displayTimeUnit"] == "ms"


def test_chrome_trace_coerces_exotic_attr_values():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("job", CAT_JOB) as span:
        span.set("predicate", object())
    doc = to_chrome_trace(tracer.tree())
    json.dumps(doc)  # must not raise


def test_flame_summary_shows_hierarchy_and_counts():
    tree = _sample_tree()
    text = flame_summary(tree)
    lines = text.splitlines()
    assert "job" in lines[0]
    assert any("scan" in line for line in lines)
    assert any("2x" in line or "1x" in line for line in lines)


def test_phase_totals_helper_tolerates_missing_tree():
    assert phase_totals(None) == {}
    assert phase_totals(_sample_tree())["scan"] == pytest.approx(0.25)


# --------------------------------------------------------------------- #
# Engine spans: the probe follows the row group
# --------------------------------------------------------------------- #

def test_one_probe_span_per_cif_split_read():
    """B-CIF hands the kernel one block per row group, so a traced query
    has one ``probe`` span per split scanned: 5 at SF 0.02 (120,000 fact
    rows in 25,000-row groups), not one per fixed-size slice."""
    from repro.api import connect
    from repro.ssb.datagen import SSBGenerator
    from repro.ssb.queries import ssb_queries

    data = SSBGenerator(scale_factor=0.02, seed=42).generate()
    session = connect("clydesdale", data=data)
    session.execute(ssb_queries()["Q2.1"], trace=True)
    tree = session.last_trace
    probes, scans = tree.find("probe"), tree.find("scan")
    assert len(probes) == len(scans) == 5
    assert sum(span.attrs["rows"] for span in probes) == \
        len(data.lineorder)
