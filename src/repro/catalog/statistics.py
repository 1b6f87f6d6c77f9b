"""Statistics about data sources: cardinalities, selectivities, access costs.

In a data integration setting these statistics are sparse and unreliable
(Section 1.1 of the paper), so every accessor distinguishes *known* values
from *defaults*, and the optimizer records which estimates were guesses so
that re-optimization rules can be attached to the corresponding fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError

#: Selectivity assumed for a join predicate with no statistics at all.
DEFAULT_JOIN_SELECTIVITY = 0.001
#: Selectivity assumed for a selection predicate with no statistics.
DEFAULT_SELECTION_SELECTIVITY = 0.1


@dataclass
class SourceStatistics:
    """Per-source statistics, any of which may be unknown (``None``).

    Parameters
    ----------
    cardinality:
        Number of tuples the source exports, if known.
    tuple_size_bytes:
        Average exported tuple size in bytes, if known.
    access_cost_ms:
        Fixed cost to initiate a transfer (connection + query startup).
    transfer_rate_kbps:
        Estimated sustained transfer rate in KB/s.
    distinct_values:
        Optional per-attribute distinct-value counts (for join selectivity).
    """

    cardinality: int | None = None
    tuple_size_bytes: int | None = None
    access_cost_ms: float | None = None
    transfer_rate_kbps: float | None = None
    distinct_values: dict[str, int] = field(default_factory=dict)
    #: Average bytes one exported tuple occupies in columnar engine storage
    #: under the *modelled* engine's default encoded layout (packed numbers,
    #: dictionary-coded strings, arrival stamp); this is the unit hash-table
    #: memory budgets charge, so memory allotments and overflow thresholds
    #: are computed from it rather than from the boxed row estimate in
    #: ``tuple_size_bytes``.
    columnar_tuple_size_bytes: int | None = None
    #: The same estimate in the *plain* (unencoded) columnar layout, for
    #: consumers planning against ``EngineConfig(encoded_columns=False)``.
    plain_columnar_tuple_size_bytes: int | None = None

    @property
    def has_cardinality(self) -> bool:
        return self.cardinality is not None

    def cardinality_or(self, default: int) -> int:
        return self.cardinality if self.cardinality is not None else default

    def distinct_or(self, attr: str, default: int) -> int:
        """Distinct count of ``attr`` (base name), or ``default``."""
        base = attr.rsplit(".", 1)[-1]
        value = self.distinct_values.get(attr, self.distinct_values.get(base))
        return value if value is not None else default


class StatisticsRegistry:
    """Catalog-wide store of per-source statistics and join selectivities."""

    def __init__(self, default_cardinality: int = 10_000) -> None:
        if default_cardinality <= 0:
            raise CatalogError("default cardinality must be positive")
        self.default_cardinality = default_cardinality
        self._by_source: dict[str, SourceStatistics] = {}
        self._join_selectivities: dict[frozenset[str], float] = {}
        self._selection_selectivities: dict[str, float] = {}

    # -- source statistics --------------------------------------------------------

    def set_source(self, source_name: str, stats: SourceStatistics) -> None:
        self._by_source[source_name] = stats

    def source(self, source_name: str) -> SourceStatistics:
        """Statistics for ``source_name`` (empty statistics when unknown)."""
        found = self._by_source.get(source_name)
        return found if found is not None else SourceStatistics()

    def knows_cardinality(self, source_name: str) -> bool:
        return self.source(source_name).has_cardinality

    def cardinality(self, source_name: str) -> int:
        """Best cardinality estimate (falls back to the registry default)."""
        return self.source(source_name).cardinality_or(self.default_cardinality)

    # -- selectivities --------------------------------------------------------------

    @staticmethod
    def _join_key(left_attr: str, right_attr: str) -> frozenset[str]:
        return frozenset((left_attr, right_attr))

    def set_join_selectivity(self, left_attr: str, right_attr: str, selectivity: float) -> None:
        """Record the selectivity of the equi-join ``left_attr = right_attr``.

        Attributes are fully qualified (``table.attr``).
        """
        if not 0.0 < selectivity <= 1.0:
            raise CatalogError(f"selectivity must be in (0, 1], got {selectivity}")
        self._join_selectivities[self._join_key(left_attr, right_attr)] = selectivity

    def join_selectivity(self, left_attr: str, right_attr: str) -> float:
        """Selectivity of an equi-join, or the default when unknown."""
        return self._join_selectivities.get(
            self._join_key(left_attr, right_attr), DEFAULT_JOIN_SELECTIVITY
        )

    def knows_join_selectivity(self, left_attr: str, right_attr: str) -> bool:
        return self._join_key(left_attr, right_attr) in self._join_selectivities

    def set_selection_selectivity(self, qualified_attr: str, selectivity: float) -> None:
        if not 0.0 < selectivity <= 1.0:
            raise CatalogError(f"selectivity must be in (0, 1], got {selectivity}")
        self._selection_selectivities[qualified_attr] = selectivity

    def selection_selectivity(self, qualified_attr: str) -> float:
        return self._selection_selectivities.get(
            qualified_attr, DEFAULT_SELECTION_SELECTIVITY
        )

    # -- bulk helpers ----------------------------------------------------------------

    def update_cardinality(self, source_name: str, cardinality: int) -> None:
        """Overwrite a source's cardinality (used when execution feeds back stats)."""
        stats = self._by_source.setdefault(source_name, SourceStatistics())
        stats.cardinality = cardinality

    def sources_with_statistics(self) -> list[str]:
        return sorted(self._by_source)
