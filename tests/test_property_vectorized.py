"""Property-based equivalence of the block kernel.

Three layers, matching the kernel pipeline:

* ``Predicate.evaluate_block`` must select exactly the positions the
  row-wise ``evaluate`` keeps, for arbitrary predicates over arbitrary
  column data;
* ``DimensionHashTable.probe_block``/``gather_aux`` must agree with
  per-row ``probe`` calls, through the dense index and the key index;
* end-to-end, the engine must return identical rows from the block
  kernel, from record-at-a-time execution (``block_iteration=False``,
  the row-wise oracle) and from the reference engine — for random SSB
  queries, on generated and on date-clustered fact data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import ClydesdaleEngine
from repro.core.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    TruePredicate,
)
from repro.core.hashtable import DimensionHashTable
from repro.core.planner import ClydesdaleFeatures
from repro.core.query import StarQuery
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.storage.columnvector import NumericVector
from tests.test_property_random_queries import star_queries

COLUMNS = ("a", "b", "c")
ORDERDATE_INDEX = 5  # lineorder schema position of lo_orderdate

values = st.integers(min_value=-20, max_value=20)
operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def leaf_predicates():
    column = st.sampled_from(COLUMNS)
    return st.one_of(
        st.builds(TruePredicate),
        st.builds(Comparison, column, operators, values),
        st.builds(lambda c, lo, span: Between(c, lo, lo + span),
                  column, values, st.integers(0, 15)),
        st.builds(InList, column,
                  st.lists(values, min_size=1, max_size=5)),
    )


predicates = st.recursive(
    leaf_predicates(),
    lambda inner: st.one_of(
        st.builds(And, st.lists(inner, min_size=1, max_size=3)),
        st.builds(Or, st.lists(inner, min_size=1, max_size=3)),
        st.builds(Not, inner),
    ),
    max_leaves=6)


@st.composite
def column_blocks(draw):
    num_rows = draw(st.integers(min_value=0, max_value=50))
    return {name: draw(st.lists(values, min_size=num_rows,
                                max_size=num_rows))
            for name in COLUMNS}, num_rows


class TestEvaluateBlockEquivalence:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=column_blocks(), predicate=predicates)
    def test_block_kernel_matches_rowwise(self, data, predicate):
        columns, num_rows = data
        selection = list(range(num_rows))
        block_result = predicate.evaluate_block(columns, selection)
        rowwise = [i for i in selection
                   if predicate.evaluate(
                       lambda name, _i=i: columns[name][_i])]
        assert list(block_result) == rowwise

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=column_blocks(), predicate=predicates)
    def test_kernel_respects_input_selection(self, data, predicate):
        """Positions outside the input selection never reappear, and
        output order stays ascending (the selection-vector contract)."""
        columns, num_rows = data
        selection = list(range(0, num_rows, 2))
        result = list(predicate.evaluate_block(columns, selection))
        assert set(result) <= set(selection)
        assert result == sorted(result)


class TestProbeBlockEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(values, max_size=60),
           entries=st.dictionaries(values, st.tuples(values, values),
                                   max_size=25),
           # 10**4 apart, two keys already span more than 8 x entries
           # slots: the table has no dense index.
           spacing=st.sampled_from([1, 10**4]))
    def test_probe_block_matches_per_row_probe(self, keys, entries,
                                               spacing):
        keys = [key * spacing for key in keys]
        entries = {key * spacing: aux for key, aux in entries.items()}
        table = DimensionHashTable.from_columns(
            "d", "fk", {"k": list(entries),
                        "x": [x for x, _ in entries.values()],
                        "y": [y for _, y in entries.values()]},
            len(entries), "k", TruePredicate(), ["x", "y"])
        vector = NumericVector(np.asarray(keys, dtype=np.int64))
        dense = bool(entries) and (spacing == 1 or len(entries) == 1)
        assert (table.hit_mask(vector) is not None) == dense
        selection = list(range(len(keys)))
        expected = [(i, table.probe(keys[i])) for i in selection
                    if table.probe(keys[i]) is not None]
        for column in (keys, vector):
            positions, aux = table.probe_block(column, selection)
            assert positions.tolist() == [i for i, _ in expected]
            assert aux == [a for _, a in expected]
            assert table.gather_aux(column, positions) == aux


def _without_limit(query: StarQuery) -> StarQuery:
    return StarQuery(
        name=query.name, fact_table=query.fact_table, joins=query.joins,
        fact_predicate=query.fact_predicate,
        aggregates=query.aggregates, group_by=query.group_by,
        order_by=query.order_by)


def python_types(rows):
    return [tuple(type(value) for value in row) for row in rows]


class TestEngineEquivalence:
    """Block kernel == record-at-a-time == reference, end to end."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(query=star_queries())
    def test_random_queries_all_paths_agree(self, query, clydesdale,
                                            reference):
        # LIMIT ties at the cut line may legally differ between engines;
        # strip it so row sets are fully determined.
        query = _without_limit(query)
        expected = sorted(reference.execute(query).rows)
        block = Session(clydesdale.engine,
                        features=ClydesdaleFeatures()).execute(query)
        record = Session(clydesdale.engine, features=ClydesdaleFeatures(
            block_iteration=False)).execute(query)
        assert sorted(block.rows) == expected
        assert sorted(record.rows) == expected
        assert python_types(sorted(block.rows)) == \
            python_types(sorted(record.rows)) == python_types(expected)
        assert block.columns == record.columns == \
            reference.execute(query).columns


class TestClusteredLayout:
    """The same three-way equivalence on date-clustered data: small
    row groups, each holding a narrow run of order dates."""

    @pytest.fixture(scope="class")
    def clustered(self):
        data = SSBGenerator(scale_factor=0.002, seed=11).generate()
        data.lineorder.sort(key=lambda row: row[ORDERDATE_INDEX])
        engine = ClydesdaleEngine.with_ssb_data(data=data,
                                                row_group_size=1500)
        return engine, ReferenceEngine.from_ssb(data)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(query=star_queries())
    def test_clustered_plans_match_reference(self, query, clustered):
        engine, reference = clustered
        query = _without_limit(query)
        expected = sorted(reference.execute(query).rows)
        block = Session(engine,
                        features=ClydesdaleFeatures()).execute(query)
        assert sorted(block.rows) == expected
        record = Session(engine, features=ClydesdaleFeatures(
            block_iteration=False)).execute(query)
        assert sorted(record.rows) == expected
        assert python_types(sorted(block.rows)) == \
            python_types(sorted(record.rows)) == python_types(expected)

    def test_selective_ssb_queries_match_reference(self, clustered):
        """Every SSB query, the date-selective Q1.x among them, returns
        the reference's rows in the reference's order."""
        from repro.ssb.queries import ssb_queries
        engine, reference = clustered
        session = Session(engine)
        for name, query in ssb_queries().items():
            assert (session.execute(query).rows
                    == reference.execute(query).rows), name
