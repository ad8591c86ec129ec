"""Consistency between the functional engines and the analytic models:
same plan structure (stage counts/kinds), same qualitative orderings.
The functional layer proves correctness; the model layer produces
SF1000 timings — this file checks they describe the same system."""

import pytest

from repro.model.hive import predict_hive_mapjoin, predict_hive_repartition
from repro.model.stats import build_profile
from repro.sim.hardware import cluster_b
from repro.ssb.queries import ssb_queries


class TestStageStructureParity:
    @pytest.mark.parametrize("name", ["Q1.1", "Q2.1", "Q3.1", "Q4.1"])
    def test_mapjoin_stage_names_match(self, hive, queries, name):
        query = queries[name]
        hive.execute(query)
        functional = [s.name for s in hive.stats().execution.stages]
        model = predict_hive_mapjoin(build_profile(query, 1000.0),
                                     cluster_b())
        modeled = [s.name for s in model.stages]
        # Same join-stage dimensions, in order.
        functional_dims = [n.rsplit(":", 1)[1] for n in functional
                           if "join" in n]
        modeled_dims = [n.rsplit(":", 1)[1] for n in modeled
                        if "mapjoin" in n]
        assert functional_dims == modeled_dims
        # Group-by present in both; order-by iff the query orders.
        assert any("groupby" in n for n in functional)
        assert any("groupby" in n for n in modeled)
        assert any("orderby" in n for n in functional) == \
            bool(query.order_by)
        assert any("orderby" in n for n in modeled) == \
            bool(query.order_by)

    @pytest.mark.parametrize("name", ["Q1.1", "Q3.1"])
    def test_repartition_stage_counts_match(self, hive_repartition,
                                            queries, name):
        query = queries[name]
        hive_repartition.execute(query)
        functional = len([s for s in
                          hive_repartition.stats().execution.stages
                          if "repartition" in s.name])
        model = predict_hive_repartition(build_profile(query, 1000.0),
                                         cluster_b())
        modeled = len([s for s in model.stages
                       if "repartition" in s.name])
        assert functional == modeled == len(query.joins)


class TestQualitativeOrderingParity:
    def test_functional_and_model_rank_engines_identically(
            self, clydesdale, hive, hive_repartition, queries):
        """For every query (tiny scale, functional) and at SF1000
        (model): clydesdale < mapjoin and clydesdale < repartition."""
        for name in ("Q1.2", "Q2.3", "Q3.2"):
            query = queries[name]
            clyde_s = clydesdale.execute(query).simulated_seconds
            mapjoin_s = hive.execute(query).simulated_seconds
            repart_s = hive_repartition.execute(query).simulated_seconds
            assert clyde_s < mapjoin_s
            assert clyde_s < repart_s

    def test_selectivity_measured_vs_profiled(self, clydesdale, queries):
        """The profile's dimension selectivities (measured at reference
        scale) agree with what the functional engine observes, within
        small-sample noise."""
        query = queries["Q2.1"]
        clydesdale.execute(query)
        stats = clydesdale.stats().execution
        profile = build_profile(query, 1000.0)
        # Date has no predicate: both must report exactly 1.0.
        assert stats.selectivity("date") == 1.0
        assert profile.dim("date").selectivity == 1.0
        # Part's category filter is 1/25: the functional engine sees a
        # noisy small-sample estimate, the profile a tight one.
        assert profile.dim("part").selectivity == \
            pytest.approx(1 / 25, rel=0.3)
        assert 0 < stats.selectivity("part") < 0.2
