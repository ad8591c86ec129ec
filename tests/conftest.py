"""Shared fixtures: generated SSB data and ready-made sessions.

Session-scoped so the (deterministic) data generation and loading run
once for the whole suite. ``clydesdale``/``hive`` are cache-less
sessions (every execute rebuilds its hash tables, so counters such as
``ht_builds`` read the same on every call); the engine is
``session.engine``, and an ablation arm is a sibling
``Session(session.engine, features=...)`` on the same loaded engine.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ClydesdaleEngine
from repro.hive.engine import HiveEngine
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import ssb_queries

SMALL_SF = 0.002
SEED = 42


@pytest.fixture(scope="session")
def ssb_data():
    return SSBGenerator(scale_factor=SMALL_SF, seed=SEED).generate()


@pytest.fixture(scope="session")
def clydesdale(ssb_data):
    return Session(ClydesdaleEngine.with_ssb_data(data=ssb_data,
                                                  num_nodes=4))


@pytest.fixture(scope="session")
def hive(ssb_data):
    return Session(HiveEngine.with_ssb_data(data=ssb_data, num_nodes=4))


@pytest.fixture(scope="session")
def hive_repartition(hive):
    """The same loaded Hive engine, fixed to the repartition plan."""
    return Session(hive.engine, plan="repartition")


@pytest.fixture(scope="session")
def reference(ssb_data):
    return ReferenceEngine.from_ssb(ssb_data)


@pytest.fixture(scope="session")
def queries():
    return ssb_queries()
