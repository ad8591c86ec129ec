"""Tests for predicate and value expressions."""

import pytest

from repro.common.errors import QueryError
from repro.core.expressions import (
    And,
    Between,
    BinaryOp,
    Col,
    Comparison,
    InList,
    Lit,
    Not,
    Or,
    TruePredicate,
    predicate_from_dict,
    value_from_dict,
)

ROW = {"a": 5, "b": "hello", "c": 2.5, "year": 1994}
GET = ROW.__getitem__


class TestComparison:
    @pytest.mark.parametrize("op,literal,expected", [
        ("=", 5, True), ("=", 6, False),
        ("!=", 6, True), ("<", 6, True), ("<", 5, False),
        ("<=", 5, True), (">", 4, True), (">=", 5, True),
    ])
    def test_operators(self, op, literal, expected):
        assert Comparison("a", op, literal).evaluate(GET) is expected

    def test_string_comparison(self):
        assert Comparison("b", "=", "hello").evaluate(GET)
        assert Comparison("b", ">", "apple").evaluate(GET)

    def test_unknown_operator(self):
        with pytest.raises(QueryError):
            Comparison("a", "~", 1)

    def test_columns(self):
        assert Comparison("a", "=", 1).columns() == {"a"}

    def test_sql_rendering(self):
        assert Comparison("b", "=", "x").to_sql() == "b = 'x'"
        assert Comparison("a", "<", 5).to_sql() == "a < 5"


class TestBetweenInList:
    def test_between_inclusive(self):
        assert Between("a", 5, 7).evaluate(GET)
        assert Between("a", 1, 5).evaluate(GET)
        assert not Between("a", 6, 9).evaluate(GET)

    def test_between_strings(self):
        assert Between("b", "ha", "hz").evaluate(GET)

    def test_in_list(self):
        assert InList("year", [1992, 1994]).evaluate(GET)
        assert not InList("year", [1999]).evaluate(GET)

    def test_in_list_empty_rejected(self):
        with pytest.raises(QueryError):
            InList("a", [])

    def test_sql(self):
        assert Between("a", 1, 3).to_sql() == "a BETWEEN 1 AND 3"
        assert InList("b", ["x", "y"]).to_sql() == "b IN ('x', 'y')"


class TestBooleanCombinators:
    def test_and(self):
        pred = And([Comparison("a", ">", 1), Comparison("a", "<", 10)])
        assert pred.evaluate(GET)
        assert pred.columns() == {"a"}

    def test_or(self):
        pred = Or([Comparison("a", "=", 99), Comparison("b", "=", "hello")])
        assert pred.evaluate(GET)

    def test_not(self):
        assert Not(Comparison("a", "=", 99)).evaluate(GET)

    def test_operator_overloads(self):
        pred = Comparison("a", ">", 1) & Comparison("year", "=", 1994)
        assert pred.evaluate(GET)
        pred = Comparison("a", "=", 0) | Comparison("a", "=", 5)
        assert pred.evaluate(GET)

    def test_empty_and_rejected(self):
        with pytest.raises(QueryError):
            And([])
        with pytest.raises(QueryError):
            Or([])

    def test_true_predicate(self):
        assert TruePredicate().evaluate(GET)
        assert TruePredicate().columns() == set()


class TestPredicateSerialization:
    @pytest.mark.parametrize("pred", [
        TruePredicate(),
        Comparison("a", ">=", 3),
        Between("year", 1992, 1997),
        InList("b", ["x", "hello"]),
        And([Comparison("a", "=", 5), Not(Comparison("b", "=", "z"))]),
        Or([Between("c", 0.0, 9.9), TruePredicate()]),
    ])
    def test_roundtrip(self, pred):
        again = predicate_from_dict(pred.to_dict())
        assert again.evaluate(GET) == pred.evaluate(GET)
        assert again.to_sql() == pred.to_sql()

    def test_unknown_kind(self):
        with pytest.raises(QueryError):
            predicate_from_dict({"kind": "mystery"})


class TestValueExpressions:
    def test_column_ref(self):
        assert Col("a").evaluate(GET) == 5
        assert Col("a").columns() == {"a"}

    def test_literal(self):
        assert Lit(7).evaluate(GET) == 7
        assert Lit("s").to_sql() == "'s'"

    def test_arithmetic(self):
        expr = Col("a") * Col("c")
        assert expr.evaluate(GET) == 12.5
        expr = Col("a") - Lit(2)
        assert expr.evaluate(GET) == 3
        expr = Col("a") + Col("year")
        assert expr.evaluate(GET) == 1999

    def test_division(self):
        assert BinaryOp("/", Col("a"), Lit(2)).evaluate(GET) == 2.5

    def test_nested_columns(self):
        expr = (Col("a") + Col("c")) * Col("year")
        assert expr.columns() == {"a", "c", "year"}

    def test_unknown_op(self):
        with pytest.raises(QueryError):
            BinaryOp("%", Col("a"), Lit(2))

    def test_sql(self):
        assert (Col("x") * Col("y")).to_sql() == "x * y"

    def test_serialization_roundtrip(self):
        expr = (Col("a") - Lit(1)) * Col("c")
        again = value_from_dict(expr.to_dict())
        assert again.evaluate(GET) == expr.evaluate(GET)

    def test_unknown_value_kind(self):
        with pytest.raises(QueryError):
            value_from_dict({"kind": "mystery"})


class TestInt64Exactness:
    """The vector measure path declines where int64 would wrap; Python
    ints (the row path, the reference engine) never do."""

    def test_vector_product_declines_past_int64(self):
        import numpy as np

        from repro.storage.columnvector import NumericVector
        columns = {"a": NumericVector(np.asarray([2**40, 3])),
                   "b": NumericVector(np.asarray([2**30, 5]))}
        assert (Col("a") * Col("b")).evaluate_vector(columns,
                                                     range(2)) is None
        assert (Col("a") * Lit(2**30)).evaluate_vector(columns,
                                                       range(2)) is None
        assert (Col("a") + Lit(2**70)).evaluate_vector(columns,
                                                       range(2)) is None
        assert (Col("a") - Col("b")).evaluate_vector(
            columns, range(2)).tolist() == [2**40 - 2**30, -2]
        assert (Col("b") * Col("b")).evaluate_vector(
            columns, range(2)).tolist() == [2**60, 25]

    def test_bigint_star_matches_the_reference(self, ssb_data):
        from repro.api import connect
        from repro.core.query import (
            Aggregate,
            DimensionJoin,
            OrderKey,
            StarQuery,
        )
        from repro.ssb.datagen import SSBData
        from repro.ssb.schema import SCHEMAS

        names = SCHEMAS["lineorder"].names
        price = names.index("lo_extendedprice")
        revenue = names.index("lo_revenue")
        lineorder = []
        for i, row in enumerate(ssb_data.lineorder):
            row = list(row)
            row[price] = 2**40 + i
            row[revenue] = 2**40 - 7 * i
            lineorder.append(tuple(row))
        data = SSBData(scale_factor=ssb_data.scale_factor,
                       seed=ssb_data.seed, customer=ssb_data.customer,
                       supplier=ssb_data.supplier, part=ssb_data.part,
                       date=ssb_data.date, lineorder=lineorder)
        query = StarQuery(
            name="bigint", fact_table="lineorder",
            joins=[DimensionJoin("date", "lo_orderdate", "d_datekey")],
            aggregates=[
                Aggregate("sum", Col("lo_extendedprice")
                          * Col("lo_revenue"), alias="product"),
                Aggregate("max", Col("lo_extendedprice")
                          * Col("lo_revenue"), alias="top"),
                Aggregate("sum", Col("lo_extendedprice"), alias="price")],
            group_by=["d_year"], order_by=[OrderKey("d_year")])
        got = connect("clydesdale", data=data, aggstore=False).execute(
            query).rows
        expected = connect("reference", data=data).execute(query).rows
        assert repr(got) == repr(expected)
        assert max(row[1] for row in got) > 2**80
