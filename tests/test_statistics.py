"""Unit tests for repro.catalog.statistics."""

import pytest

from repro.catalog.statistics import (
    DEFAULT_JOIN_SELECTIVITY,
    SourceStatistics,
    StatisticsRegistry,
)
from repro.errors import CatalogError


class TestSourceStatistics:
    def test_cardinality_or_default(self):
        assert SourceStatistics().cardinality_or(42) == 42
        assert SourceStatistics(cardinality=7).cardinality_or(42) == 7
        assert not SourceStatistics().has_cardinality


class TestStatisticsRegistry:
    def test_unknown_source_uses_default(self):
        registry = StatisticsRegistry(default_cardinality=1000)
        assert registry.cardinality("mystery") == 1000
        assert not registry.knows_cardinality("mystery")

    def test_set_and_get_source(self):
        registry = StatisticsRegistry()
        registry.set_source("s", SourceStatistics(cardinality=5))
        assert registry.cardinality("s") == 5
        assert registry.knows_cardinality("s")

    def test_update_cardinality_creates_entry(self):
        registry = StatisticsRegistry()
        registry.update_cardinality("intermediate", 77)
        assert registry.cardinality("intermediate") == 77

    def test_join_selectivity_symmetric_and_default(self):
        registry = StatisticsRegistry()
        assert registry.join_selectivity("a.x", "b.y") == DEFAULT_JOIN_SELECTIVITY
        registry.set_join_selectivity("a.x", "b.y", 0.25)
        assert registry.join_selectivity("a.x", "b.y") == 0.25
        assert registry.join_selectivity("b.y", "a.x") == 0.25
        assert registry.knows_join_selectivity("b.y", "a.x")

    def test_join_selectivity_validation(self):
        registry = StatisticsRegistry()
        with pytest.raises(CatalogError):
            registry.set_join_selectivity("a.x", "b.y", 0.0)
        with pytest.raises(CatalogError):
            registry.set_join_selectivity("a.x", "b.y", 1.5)

    def test_invalid_default_cardinality(self):
        with pytest.raises(CatalogError):
            StatisticsRegistry(default_cardinality=0)
