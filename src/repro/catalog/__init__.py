"""Data source catalog: source descriptions, statistics, overlap information."""

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.overlap import OverlapCatalog, OverlapEntry
from repro.catalog.source_desc import SourceDescription
from repro.catalog.statistics import (
    DEFAULT_JOIN_SELECTIVITY,
    SourceStatistics,
    StatisticsRegistry,
)

__all__ = [
    "DEFAULT_JOIN_SELECTIVITY",
    "DataSourceCatalog",
    "OverlapCatalog",
    "OverlapEntry",
    "SourceDescription",
    "SourceStatistics",
    "StatisticsRegistry",
]
