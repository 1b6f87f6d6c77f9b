"""Unit tests for the optimizer's cost model."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.statistics import DEFAULT_JOIN_SELECTIVITY
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource
from repro.optimizer.cost_model import CardinalityEstimate, CostModel
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate

from enumeration_oracle import join_cardinality
from helpers import make_relation


@pytest.fixture
def catalog():
    catalog = DataSourceCatalog()
    big = make_relation("big", ["k:int"], [(i,) for i in range(1000)])
    small = make_relation("small", ["k:int"], [(i,) for i in range(10)])
    tiny = make_relation("tiny", ["k:int"], [(i,) for i in range(10)])
    catalog.register_source(DataSource("big", big, lan()))
    catalog.register_source(DataSource("small", small, wide_area()))
    catalog.register_source(DataSource("tiny", tiny, lan()))
    catalog.register_source(
        DataSource("mystery", make_relation("mystery", ["k:int"], [(1,)]), lan()),
        publish_statistics=False,
    )
    return catalog


@pytest.fixture
def model(catalog):
    return CostModel(catalog)


class TestSourceEstimates:
    def test_known_cardinality_reliable(self, model):
        estimate = model.source_cardinality("big")
        assert estimate.value == 1000
        assert estimate.reliable

    def test_unknown_cardinality_defaults_unreliable(self, model, catalog):
        estimate = model.source_cardinality("mystery")
        assert estimate.value == catalog.statistics.default_cardinality
        assert not estimate.reliable

    def test_scan_cost_grows_with_cardinality(self, model):
        # Same link, 100x the tuples: the bigger source must cost more to scan.
        assert model.source_scan_cost("big") > model.source_scan_cost("tiny")

    def test_scan_cost_penalises_slow_links(self, model, catalog):
        # small is behind the wide-area link: per-tuple cost should be higher.
        big_cost = model.source_scan_cost("big") / 1000
        small_cost = model.source_scan_cost("small") / 10
        assert small_cost > big_cost


class TestJoinEstimates:
    def test_selectivity_known_vs_default(self, model, catalog):
        selectivity, reliable = model.join_selectivity(
            [JoinPredicate("big", "k", "small", "k")], 1000, 10
        )
        assert selectivity == DEFAULT_JOIN_SELECTIVITY
        assert not reliable
        catalog.statistics.set_join_selectivity("big.k", "small.k", 0.1)
        selectivity, reliable = model.join_selectivity(
            [JoinPredicate("big", "k", "small", "k")], 1000, 10
        )
        assert selectivity == 0.1
        assert reliable

    def test_cross_product_selectivity(self, model):
        selectivity, reliable = model.join_selectivity([], 10, 10)
        assert selectivity == 1.0
        assert reliable

    def test_join_cardinality_combines_reliability(self, model, catalog):
        catalog.statistics.set_join_selectivity("big.k", "small.k", 0.01)
        left = CardinalityEstimate(1000, True)
        right = CardinalityEstimate(10, True)
        estimate = join_cardinality(model, left, right, [JoinPredicate("big", "k", "small", "k")])
        assert estimate.value == 100
        assert estimate.reliable
        unreliable = join_cardinality(
            model, CardinalityEstimate(1000, False), right, [JoinPredicate("big", "k", "small", "k")]
        )
        assert not unreliable.reliable

    def test_join_cost_spill_penalty(self, model):
        left = right = output = 10_000
        roomy = model.join_cost_of_sizes(left, right, output, memory_limit_bytes=None)
        tight = model.join_cost_of_sizes(left, right, output, memory_limit_bytes=64 * 1024)
        assert tight > roomy

    def test_pipelined_join_builds_both_sides(self, model):
        left, right, output = 1000, 10, 100
        dpj = model.join_cost_of_sizes(left, right, output, None, pipelined=True)
        hybrid = model.join_cost_of_sizes(left, right, output, None, pipelined=False)
        assert dpj > hybrid  # hybrid only builds the small side

    def test_materialization_and_rescan_costs(self, model):
        assert model.rescan_cost(100) > 0


class TestReliabilityCheck:
    def test_has_reliable_statistics(self, model, catalog):
        query = ConjunctiveQuery(
            name="q",
            relations=["big", "small"],
            join_predicates=[JoinPredicate("big", "k", "small", "k")],
        )
        sources = {"big": "big", "small": "small"}
        assert not model.has_reliable_statistics(query, sources)
        catalog.statistics.set_join_selectivity("big.k", "small.k", 0.1)
        assert model.has_reliable_statistics(query, sources)
        # A relation backed by a statistics-free source breaks reliability.
        query2 = ConjunctiveQuery(
            name="q2",
            relations=["big", "mystery"],
            join_predicates=[JoinPredicate("big", "k", "mystery", "k")],
        )
        catalog.statistics.set_join_selectivity("big.k", "mystery.k", 0.1)
        assert not model.has_reliable_statistics(query2, {"big": "big", "mystery": "mystery"})
