"""Clydesdale core: the star-join engine (the paper's contribution)."""

from repro.core.engine import ClydesdaleEngine, ExecutionStats
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
    Predicate,
    TruePredicate,
    ValueExpr,
    predicate_from_dict,
    value_from_dict,
)
from repro.core.hashtable import DimensionHashTable, HashTableStats
from repro.core.joinjob import (
    MTMapRunner,
    StarJoinCombiner,
    StarJoinMapper,
    StarJoinReducer,
)
from repro.core.planner import (
    ClydesdaleFeatures,
    fact_scan_columns,
    plan_star_join,
    validate_query,
)
from repro.core.query import Aggregate, DimensionJoin, OrderKey, StarQuery
from repro.core.result import QueryResult, apply_order_by
from repro.core.explain import explain_clydesdale, explain_hive
from repro.core.sqlparser import SqlError, parse_sql
from repro.core.rollin import (
    RollinCost,
    append_fact_rows,
    compare_rollin_cost,
    roll_out_oldest,
)

__all__ = [
    "Aggregate",
    "And",
    "Between",
    "BinaryOp",
    "ClydesdaleEngine",
    "ClydesdaleFeatures",
    "Col",
    "Comparison",
    "DimensionHashTable",
    "DimensionJoin",
    "ExecutionStats",
    "HashTableStats",
    "InList",
    "Lit",
    "MTMapRunner",
    "Not",
    "Or",
    "OrderKey",
    "Predicate",
    "QueryResult",
    "RollinCost",
    "SqlError",
    "StarJoinCombiner",
    "StarJoinMapper",
    "StarJoinReducer",
    "StarQuery",
    "TruePredicate",
    "ValueExpr",
    "append_fact_rows",
    "apply_order_by",
    "compare_rollin_cost",
    "explain_clydesdale",
    "explain_hive",
    "roll_out_oldest",
    "fact_scan_columns",
    "plan_star_join",
    "predicate_from_dict",
    "parse_sql",
    "validate_query",
    "value_from_dict",
]
