"""Ablation grid: row-group zone maps (``zone_maps``) crossed with the
paper's block iteration (block kernel vs record-at-a-time) — four
configurations (mirroring the Figure 9 ablation harness in
``test_fig9_ablation.py``).

The fact table is clustered by ``lo_orderdate`` before loading so
zone-map pruning has something to bite on (row order never changes
query results; SSB's generator emits order dates uniformly at random,
which models the worst case where zone maps prune nothing). Every
configuration must produce exactly the reference engine's rows.
"""

import itertools

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


GRID = sorted(itertools.product([False, True], repeat=2))


@pytest.mark.parametrize("block_iteration,zone_maps", GRID)
def test_ablation_grid_q11(benchmark, clustered, block_iteration,
                           zone_maps):
    """All four configurations agree with the reference engine."""
    engine, reference = clustered
    features = ClydesdaleFeatures(block_iteration=block_iteration,
                                  zone_maps=zone_maps)
    query = ssb_queries()["Q1.1"]
    expected = reference.execute(query).rows

    result = benchmark(Session(engine, features=features).execute, query)
    assert result.rows == expected

    stats = engine.last_stats
    if zone_maps:
        # Q1.1's d_year=1993 join implies a narrow lo_orderdate range;
        # on date-clustered data that must skip whole row groups.
        assert stats.rowgroups_pruned > 0
        assert stats.rows_skipped > 0
    else:
        assert stats.rowgroups_pruned == 0
        assert stats.rows_skipped == 0


def test_pruning_reduces_rows_probed(clustered):
    """Zone maps shrink the scan itself, not just a counter."""
    engine, _ = clustered
    query = ssb_queries()["Q1.1"]
    Session(engine, features=ClydesdaleFeatures(
        zone_maps=False)).execute(query)
    probed_without = engine.last_stats.rows_probed
    Session(engine, features=ClydesdaleFeatures(
        zone_maps=True)).execute(query)
    with_stats = engine.last_stats
    assert with_stats.rows_probed < probed_without
    assert (with_stats.rows_probed + with_stats.rows_skipped
            == probed_without)


def test_uniform_data_prunes_nothing(small_data):
    """Stock SSB order dates are uniform per row group: the planner
    still derives a pruning predicate, but no group can be skipped —
    and results stay correct."""
    engine = ClydesdaleEngine.with_ssb_data(data=small_data,
                                            row_group_size=2000)
    reference = ReferenceEngine.from_ssb(small_data)
    query = ssb_queries()["Q1.1"]
    result = Session(engine).execute(query)
    assert result.rows == reference.execute(query).rows
    assert engine.last_stats.rowgroups_pruned == 0
