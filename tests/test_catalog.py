"""Unit tests for repro.catalog.catalog and source descriptions."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.source_desc import SourceDescription
from repro.catalog.statistics import SourceStatistics
from repro.errors import CatalogError
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource

from helpers import make_relation


@pytest.fixture
def books():
    return make_relation("book", ["isbn:int", "title:str"], [(i, f"b{i}") for i in range(6)])


@pytest.fixture
def catalog(books):
    cat = DataSourceCatalog()
    cat.register_source(DataSource("lib1", books, lan()))
    return cat


class TestSourceDescription:
    def test_defaults(self):
        desc = SourceDescription("s", "book")
        assert desc.complete
        assert desc.coverage == 1.0

    def test_incomplete_requires_consistent_coverage(self):
        with pytest.raises(CatalogError):
            SourceDescription("s", "book", complete=True, coverage=0.5)
        SourceDescription("s", "book", complete=False, coverage=0.5)

    def test_invalid_coverage(self):
        with pytest.raises(CatalogError):
            SourceDescription("s", "book", complete=False, coverage=0.0)

    def test_requires_names(self):
        with pytest.raises(CatalogError):
            SourceDescription("", "book")
        with pytest.raises(CatalogError):
            SourceDescription("s", "")


class TestDataSourceCatalog:
    def test_register_and_lookup(self, catalog):
        assert "lib1" in catalog
        assert catalog.source("lib1").name == "lib1"
        assert catalog.description("lib1").mediated_relation == "book"
        assert catalog.source_names == ["lib1"]

    def test_duplicate_registration_rejected(self, catalog, books):
        with pytest.raises(CatalogError):
            catalog.register_source(DataSource("lib1", books, lan()))

    def test_unknown_lookups_raise(self, catalog):
        with pytest.raises(CatalogError):
            catalog.source("nope")
        with pytest.raises(CatalogError):
            catalog.description("nope")

    def test_description_source_mismatch_rejected(self, books):
        catalog = DataSourceCatalog()
        with pytest.raises(CatalogError):
            catalog.register_source(
                DataSource("x", books, lan()),
                description=SourceDescription("other", "book"),
            )

    def test_auto_published_statistics(self, catalog, books):
        stats = catalog.statistics.source("lib1")
        assert stats.cardinality == books.cardinality
        assert stats.transfer_rate_kbps == lan().bandwidth_kbps
        assert catalog.statistics.knows_cardinality("lib1")

    def test_unpublished_statistics(self, books):
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("dark", books, lan()), publish_statistics=False)
        assert not catalog.statistics.knows_cardinality("dark")
        assert catalog.statistics.cardinality("dark") == catalog.statistics.default_cardinality

    def test_explicit_statistics_win(self, books):
        catalog = DataSourceCatalog()
        catalog.register_source(
            DataSource("s", books, lan()), statistics=SourceStatistics(cardinality=999)
        )
        assert catalog.statistics.cardinality("s") == 999

    def test_sources_for_relation_and_mirrors(self, catalog, books):
        catalog.register_source(
            DataSource("lib2", books, wide_area()),
            description=SourceDescription("lib2", "book", complete=False, coverage=0.7),
        )
        assert catalog.sources_for_relation("book") == ["lib1", "lib2"]

    def test_record_observed_cardinality(self, catalog):
        catalog.record_observed_cardinality("intermediate_r1", 55)
        assert catalog.statistics.cardinality("intermediate_r1") == 55
