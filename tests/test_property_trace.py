"""Property test: for *randomly generated* star queries, the
session-rooted span tree produced under tracing is well-formed — every
span closed exactly once, child intervals nested within their parents,
and same-thread sequential phases summing to no more than their parent
— under both engines."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.serve.session import Session
from repro.trace.tracer import CAT_PHASE, STATUS_OPEN

from tests.test_property_random_queries import star_queries


def _assert_well_formed(tree, query):
    assert tree is not None
    assert tree.violations() == []
    assert all(s.status != STATUS_OPEN for s in tree.spans)
    roots = tree.roots()
    assert len(roots) == 1
    root = roots[0]
    assert root.name == f"session:{query.name}"
    (engine_span,) = tree.find(f"query:{query.name}")
    assert engine_span.parent_id == root.span_id
    # Nesting bounds every phase by the whole query's wall-clock.
    for span in tree.find_category(CAT_PHASE):
        assert span.duration_s <= root.duration_s + 1e-9


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_clydesdale_span_tree_well_formed(query, clydesdale):
    result = clydesdale.execute(query, trace=True)
    tree = clydesdale.last_trace
    assert clydesdale.stats().execution.trace is tree
    _assert_well_formed(tree, query)
    # Star joins always scan the fact table; a query with joins also
    # builds and probes hash tables.
    phases = clydesdale.stats().execution.phases
    assert phases == tree.phase_totals()
    assert phases.get("scan", 0.0) > 0.0
    if query.joins and result.rows:
        assert phases.get("build", 0.0) > 0.0
        assert phases.get("probe", 0.0) > 0.0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_hive_span_tree_well_formed(query, hive):
    for plan in ("mapjoin", "repartition"):
        session = Session(hive.engine, plan=plan)
        session.execute(query, trace=True)
        _assert_well_formed(session.last_trace, query)
