"""Edge cases across both engines: empty results, join-less queries,
extreme predicates, min/max aggregates, repeated execution, and the
Hive no-join scan path the fuzzer originally broke."""

import pytest

from repro.core.expressions import (
    And,
    Between,
    Col,
    Comparison,
    InList,
    Not,
)
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.serve.session import Session


def q(name="edge", **kwargs):
    defaults = dict(fact_table="lineorder", joins=[],
                    aggregates=[Aggregate("sum", Col("lo_revenue"),
                                          alias="revenue")])
    defaults.update(kwargs)
    return StarQuery(name=name, **defaults)


def run_everywhere(query, clydesdale, hive, reference):
    expected = reference.execute(query)
    for label, result in (
            ("clydesdale", clydesdale.execute(query)),
            ("mapjoin", hive.execute(query)),
            ("repartition", Session(hive.engine, plan="repartition")
             .execute(query))):
        assert sorted(result.rows) == sorted(expected.rows), label
    return expected


class TestJoinlessQueries:
    def test_global_sum(self, clydesdale, hive, reference, ssb_data):
        expected = run_everywhere(q(), clydesdale, hive, reference)
        assert expected.rows[0][0] == sum(
            row[12] for row in ssb_data.lineorder)

    def test_fact_filter_only(self, clydesdale, hive, reference):
        query = q(fact_predicate=Between("lo_discount", 9, 10))
        run_everywhere(query, clydesdale, hive, reference)

    def test_fact_group_by(self, clydesdale, hive, reference):
        query = q(group_by=["lo_shipmode"],
                  order_by=[OrderKey("lo_shipmode")])
        expected = run_everywhere(query, clydesdale, hive, reference)
        assert len(expected.rows) == 7  # seven ship modes


class TestEmptyResults:
    def test_impossible_fact_predicate(self, clydesdale, hive, reference):
        query = q(fact_predicate=Comparison("lo_quantity", ">", 999))
        expected = run_everywhere(query, clydesdale, hive, reference)
        assert expected.rows == []

    def test_impossible_dim_predicate(self, clydesdale, hive, reference):
        query = q(joins=[DimensionJoin(
            "customer", "lo_custkey", "c_custkey",
            Comparison("c_region", "=", "ATLANTIS"))],
            group_by=["c_nation"])
        expected = run_everywhere(query, clydesdale, hive, reference)
        assert expected.rows == []

    def test_empty_group_result_no_groupby(self, clydesdale, reference):
        """Grand-total aggregate over zero rows: both engines agree on
        returning no row (documented deviation from SQL's NULL row)."""
        query = q(fact_predicate=Comparison("lo_quantity", "<", 0))
        assert clydesdale.execute(query).rows == \
            reference.execute(query).rows == []


class TestAggregateKinds:
    def test_min_max_count(self, clydesdale, hive, reference):
        query = q(
            joins=[DimensionJoin("date", "lo_orderdate", "d_datekey",
                                 Comparison("d_year", "=", 1995))],
            aggregates=[
                Aggregate("min", Col("lo_quantity"), alias="qmin"),
                Aggregate("max", Col("lo_quantity"), alias="qmax"),
                Aggregate("count", Col("lo_quantity"), alias="n"),
            ],
            group_by=["d_sellingseason"],
            order_by=[OrderKey("d_sellingseason")])
        expected = run_everywhere(query, clydesdale, hive, reference)
        for _, qmin, qmax, n in expected.rows:
            assert 1 <= qmin <= qmax <= 50
            assert n > 0

    def test_arithmetic_aggregate_expression(self, clydesdale, hive,
                                             reference):
        query = q(aggregates=[
            Aggregate("sum",
                      (Col("lo_revenue") - Col("lo_supplycost"))
                      * Col("lo_tax"),
                      alias="weird")])
        run_everywhere(query, clydesdale, hive, reference)


class TestPredicateShapes:
    def test_not_predicate(self, clydesdale, hive, reference):
        query = q(joins=[DimensionJoin(
            "supplier", "lo_suppkey", "s_suppkey",
            Not(Comparison("s_region", "=", "ASIA")))],
            group_by=["s_region"],
            order_by=[OrderKey("s_region")])
        expected = run_everywhere(query, clydesdale, hive, reference)
        assert all(region != "ASIA" for region, _ in expected.rows)

    def test_nested_boolean_predicate(self, clydesdale, hive, reference):
        pred = And([
            Comparison("d_year", ">=", 1993),
            Not(InList("d_monthnuminyear", [1, 2])),
        ])
        query = q(joins=[DimensionJoin("date", "lo_orderdate",
                                       "d_datekey", pred)],
                  group_by=["d_year"], order_by=[OrderKey("d_year")])
        run_everywhere(query, clydesdale, hive, reference)


class TestRepetitionAndIsolation:
    def test_same_query_thrice_identical(self, clydesdale, queries):
        results = [clydesdale.execute(queries["Q2.1"]).rows
                   for _ in range(3)]
        assert results[0] == results[1] == results[2]

    def test_interleaved_queries_do_not_interfere(self, clydesdale, hive,
                                                  reference, queries):
        """The stale-broadcast regression: alternating predicates on the
        same dimension must never reuse the other query's hash table."""
        asia = q(name="asia", joins=[DimensionJoin(
            "customer", "lo_custkey", "c_custkey",
            Comparison("c_region", "=", "ASIA"))])
        everyone = q(name="asia", joins=[DimensionJoin(
            "customer", "lo_custkey", "c_custkey")])
        # Deliberately the same query *name* to stress cache keying.
        for _ in range(2):
            got_asia = hive.execute(asia)
            got_all = hive.execute(everyone)
            assert got_asia.rows == reference.execute(asia).rows
            assert got_all.rows == reference.execute(everyone).rows
            assert got_asia.rows != got_all.rows

    def test_limit_zero_rows(self, clydesdale, queries):
        import copy
        query = copy.deepcopy(queries["Q2.1"])
        query.limit = 0
        assert clydesdale.execute(query).rows == []
