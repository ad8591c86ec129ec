"""The central correctness claim: Clydesdale (single-pass and split in
two passes), Hive-mapjoin, and Hive-repartition return identical answers
to the reference engine for every SSB query."""

import pytest

from repro.serve.session import Session
from repro.ssb.queries import QUERY_NAMES


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_all_engines_agree(name, clydesdale, hive, reference, queries):
    query = queries[name]
    expected = reference.execute(query)
    got_clyde = clydesdale.execute(query)
    got_mapjoin = hive.execute(query)
    got_repart = Session(hive.engine, plan="repartition").execute(query)
    assert got_clyde.columns == expected.columns
    assert got_clyde.rows == expected.rows, f"{name}: clydesdale differs"
    assert got_mapjoin.rows == expected.rows, f"{name}: mapjoin differs"
    assert got_repart.rows == expected.rows, f"{name}: repartition differs"
    dims = [join.dimension for join in query.joins]
    if len(dims) >= 2:
        got_passes = clydesdale.engine.execute_multipass(
            query, [dims[:1], dims[1:]])
        assert got_passes.rows == expected.rows, f"{name}: 2-pass differs"


def test_larger_scale_factor_sample(queries):
    """Spot-check three representative queries at 5x the suite's scale
    so flights 3/4 produce non-trivial result sets."""
    from repro.bench.figures import validate_small_scale
    outcomes = validate_small_scale(scale_factor=0.01, seed=7,
                                    queries=["Q1.1", "Q3.1", "Q4.1"])
    assert outcomes["Q3.1"]["rows"] > 0
    assert outcomes["Q4.1"]["rows"] > 0


def test_sql_rendering_of_all_queries(queries):
    for name, query in queries.items():
        sql = query.to_sql()
        assert sql.startswith("SELECT")
        assert "FROM lineorder" in sql
        assert sql.endswith(";")
