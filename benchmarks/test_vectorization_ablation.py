"""Ablation: the paper's block iteration (block kernel vs
record-at-a-time) on date-clustered fact data (mirroring the Figure 9
ablation harness in ``test_fig9_ablation.py``).

The fact table is clustered by ``lo_orderdate`` before loading, so each
small row group holds a narrow run of order dates (row order never
changes query results; SSB's generator emits order dates uniformly at
random). Both configurations must produce exactly the reference
engine's rows.
"""

import pytest

from repro.core.engine import ClydesdaleEngine
from repro.core.planner import ClydesdaleFeatures
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries

ORDERDATE_INDEX = 5  # lineorder schema position of lo_orderdate


@pytest.fixture(scope="module")
def clustered():
    data = SSBGenerator(scale_factor=0.002, seed=42).generate()
    data.lineorder.sort(key=lambda row: row[ORDERDATE_INDEX])
    engine = ClydesdaleEngine.with_ssb_data(data=data,
                                            row_group_size=2000)
    reference = ReferenceEngine.from_ssb(data)
    return engine, reference


@pytest.mark.parametrize("block_iteration", [False, True])
def test_ablation_q11(benchmark, clustered, block_iteration):
    """Both configurations agree with the reference engine."""
    engine, reference = clustered
    features = ClydesdaleFeatures(block_iteration=block_iteration)
    query = ssb_queries()["Q1.1"]
    expected = reference.execute(query).rows

    result = benchmark(Session(engine, features=features).execute, query)
    assert result.rows == expected
