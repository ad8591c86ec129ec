"""Property-based cross-engine checking with *randomly generated* star
queries over the SSB schema.

Hypothesis composes arbitrary join subsets, dimension and fact
predicates, aggregates, group-bys and orderings; Clydesdale (and, on a
subset of cases, both Hive plans) must match the reference engine
exactly. This covers a far larger query space than the 13 fixed SSB
queries.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.expressions import (
    And,
    Between,
    Col,
    Comparison,
    InList,
    TruePredicate,
)
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.serve.session import Session
from repro.ssb.schema import FOREIGN_KEYS

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

DIM_PREDICATES = {
    "customer": [
        TruePredicate(),
        Comparison("c_region", "=", "ASIA"),
        Comparison("c_nation", "!=", "CHINA"),
        InList("c_mktsegment", ["AUTOMOBILE", "MACHINERY"]),
    ],
    "supplier": [
        TruePredicate(),
        Comparison("s_region", "=", "EUROPE"),
        InList("s_nation", ["JAPAN", "PERU", "FRANCE"]),
    ],
    "part": [
        TruePredicate(),
        Comparison("p_mfgr", "=", "MFGR#1"),
        Between("p_size", 10, 35),
        Comparison("p_category", ">", "MFGR#3"),
    ],
    "date": [
        TruePredicate(),
        Between("d_year", 1993, 1996),
        Comparison("d_monthnuminyear", "=", 6),
        InList("d_sellingseason", ["Summer", "Christmas"]),
    ],
}

DIM_GROUP_COLS = {
    "customer": ["c_region", "c_nation", "c_mktsegment"],
    "supplier": ["s_region", "s_nation"],
    "part": ["p_mfgr", "p_category"],
    "date": ["d_year", "d_sellingseason"],
}

FACT_PREDICATES = [
    TruePredicate(),
    Between("lo_discount", 2, 6),
    Comparison("lo_quantity", "<", 30),
    And([Comparison("lo_tax", ">=", 2),
         Comparison("lo_quantity", ">", 10)]),
]

FACT_GROUP_COLS = ["lo_shipmode", "lo_orderpriority"]

MEASURES = [
    Col("lo_revenue"),
    Col("lo_quantity"),
    Col("lo_extendedprice") * Col("lo_discount"),
    Col("lo_revenue") - Col("lo_supplycost"),
]

_FK_BY_DIM = {dim: (fk, pk) for fk, (dim, pk) in FOREIGN_KEYS.items()}


@st.composite
def star_queries(draw) -> StarQuery:
    dims = draw(st.lists(
        st.sampled_from(sorted(DIM_PREDICATES)), unique=True,
        min_size=0, max_size=4))
    joins = []
    for dim in dims:
        fk, pk = _FK_BY_DIM[dim]
        predicate = draw(st.sampled_from(DIM_PREDICATES[dim]))
        joins.append(DimensionJoin(dim, fk, pk, predicate))

    group_pool = [c for dim in dims for c in DIM_GROUP_COLS[dim]]
    group_pool += FACT_GROUP_COLS
    group_by = draw(st.lists(st.sampled_from(group_pool), unique=True,
                             max_size=3)) if group_pool else []

    num_aggs = draw(st.integers(min_value=1, max_value=3))
    functions = draw(st.lists(
        st.sampled_from(["sum", "count", "min", "max"]),
        min_size=num_aggs, max_size=num_aggs))
    aggregates = [
        Aggregate(fn, draw(st.sampled_from(MEASURES)), alias=f"agg{i}")
        for i, fn in enumerate(functions)]

    order_pool = list(group_by) + [a.alias for a in aggregates]
    order_by = [OrderKey(column, descending=draw(st.booleans()))
                for column in draw(st.lists(
                    st.sampled_from(order_pool), unique=True,
                    max_size=2))] if order_pool else []

    return StarQuery(
        name="random",
        fact_table="lineorder",
        joins=joins,
        fact_predicate=draw(st.sampled_from(FACT_PREDICATES)),
        aggregates=aggregates,
        group_by=group_by,
        order_by=order_by,
        limit=draw(st.one_of(st.none(),
                             st.integers(min_value=1, max_value=20))),
    )



def _assert_same_results(got, expected, query):
    """SQL-semantics comparison: sets must match; ORDER BY keys must be
    respected (ties may legally appear in any order)."""
    assert got.columns == expected.columns
    assert sorted(got.rows) == sorted(expected.rows)
    if query.order_by:
        index = {name: i for i, name in enumerate(got.columns)}
        for prev, row in zip(got.rows, got.rows[1:]):
            for key in query.order_by:
                a, b = prev[index[key.column]], row[index[key.column]]
                if a != b:
                    assert (a > b) if key.descending else (a < b)
                    break


def _canonical(result):
    """Order-insensitive comparison view honoring LIMIT semantics."""
    return sorted(result.rows)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_clydesdale_matches_reference_on_random_queries(
        query, clydesdale, reference):
    expected = reference.execute(query)
    got = clydesdale.execute(query)
    if query.limit is None:
        _assert_same_results(got, expected, query)
    else:
        # With LIMIT, ties at the cut line may legally differ; compare
        # sizes and that every returned row is a valid result row.
        unlimited = StarQuery(
            name="random", fact_table=query.fact_table,
            joins=query.joins, fact_predicate=query.fact_predicate,
            aggregates=query.aggregates, group_by=query.group_by,
            order_by=query.order_by)
        full = reference.execute(unlimited)
        assert len(got.rows) == min(query.limit, len(full.rows))
        assert set(got.rows) <= set(full.rows)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_hive_plans_match_reference_on_random_queries(
        query, hive, reference):
    expected = reference.execute(query)
    for plan in ("mapjoin", "repartition"):
        got = Session(hive.engine, plan=plan).execute(query)
        if query.limit is None:
            _assert_same_results(got, expected, query)
        else:
            assert len(got.rows) <= query.limit


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=star_queries())
def test_multipass_matches_reference_on_random_queries(
        query, clydesdale, reference):
    if not query.joins:
        return  # multipass needs at least one join
    passes = [[j.dimension] for j in query.joins]
    got = clydesdale.engine.execute_multipass(query, passes)
    if query.limit is None:
        _assert_same_results(got, reference.execute(query), query)
