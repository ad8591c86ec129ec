"""The serving layer's acceptance numbers: a warm-cache repeat of Q2.1
through a Session builds zero hash tables (``ht_builds == 0``,
``ht_cache_hits > 0``) and returns byte-identical rows, and a cold run
costs at most 3x the warm one.

Wall-clock, not simulated: this times the reproduction's own execution
pipeline. A cache hit skips the per-node column read + masked build,
which is cheap since the node-local dimension copy is columnar (cold
measured 1.3-1.7x warm; 9x while the copy was decoded row by row) —
the ceiling keeps the cold path from becoming a row decoder again.
"""

from __future__ import annotations

import time

import pytest

from repro.api import connect
from repro.reference.engine import ReferenceEngine
from repro.ssb.queries import ssb_queries


@pytest.fixture(scope="module")
def session(small_data):
    # aggstore=False: this benchmark asserts hash-table cache evidence
    # (ht_builds, hits/misses) on warm repeats, which the aggregate
    # store would serve before the engine runs.
    return connect(backend="clydesdale", data=small_data, aggstore=False)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_warm_repeat_builds_nothing_and_cold_stays_near_warm(
        session, small_data):
    query = ssb_queries()["Q2.1"]

    def cold_run():
        session.invalidate_cache()
        session.execute(query)

    cold_s = _best_of(cold_run)
    cold_result = session.execute(query)  # also warms the cache
    assert session.stats().execution.ht_builds == 0  # served by the warm-up

    warm_s = _best_of(lambda: session.execute(query))
    assert session.stats().execution.ht_builds == 0
    assert session.stats().execution.ht_cache_hits > 0
    assert session.stats().execution.ht_cache_misses == 0

    warm_result = session.execute(query)
    expected = ReferenceEngine.from_ssb(small_data).execute(query)
    assert warm_result.rows == cold_result.rows == expected.rows
    assert warm_result.columns == expected.columns

    cold_over_warm = cold_s / warm_s
    stats = session.cache_stats()
    print(f"\ncold={cold_s * 1000:.1f}ms warm={warm_s * 1000:.1f}ms "
          f"cold/warm={cold_over_warm:.2f} "
          f"(cache: {stats.hits} hits / {stats.misses} misses, "
          f"{stats.bytes_cached:,} bytes in {stats.entries} entries)")
    assert cold_over_warm <= 3.0, (
        f"a cold run costs {cold_over_warm:.2f}x a warm repeat")


def test_warm_cache_benefits_sibling_query(session):
    """Q2.2 shares Q2.1's date-join recipe: a fresh query on a warm
    session already hits the cache for the shared dimension."""
    session.invalidate_cache()
    session.execute(ssb_queries()["Q2.1"])
    session.execute(ssb_queries()["Q2.2"])
    assert session.stats().execution.ht_cache_hits > 0
