"""Unit tests for repro.catalog.overlap."""

import pytest

from repro.catalog.overlap import OverlapCatalog
from repro.errors import CatalogError


@pytest.fixture
def catalog():
    return OverlapCatalog()


def test_default_overlap_is_zero(catalog):
    assert catalog.overlap("a", "b") == 0.0


def test_set_and_get_overlap_directional(catalog):
    catalog.set_overlap("a", "b", 0.8)
    assert catalog.overlap("a", "b") == 0.8
    assert catalog.overlap("b", "a") == 0.0


def test_invalid_probability_rejected(catalog):
    with pytest.raises(CatalogError):
        catalog.set_overlap("a", "b", 1.5)


def test_mirrors(catalog):
    catalog.set_mirrors("a", "b")
    assert catalog.overlap("a", "b") == catalog.overlap("b", "a") == 1.0


def test_rank_by_coverage(catalog):
    catalog.set_overlap("a", "b", 0.2)
    catalog.set_overlap("a", "c", 0.9)
    assert catalog.rank_by_coverage("a", ["b", "c", "a"]) == ["c", "b"]


def test_rank_ties_broken_by_name(catalog):
    catalog.set_overlap("a", "x", 0.5)
    catalog.set_overlap("a", "b", 0.5)
    assert catalog.rank_by_coverage("a", ["x", "b"]) == ["b", "x"]

