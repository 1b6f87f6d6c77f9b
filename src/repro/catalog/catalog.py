"""The data source catalog.

The catalog (Section 2 of the paper) holds three kinds of metadata:

1. semantic descriptions of each source's contents (:class:`SourceDescription`),
2. overlap information between pairs of sources (:class:`OverlapCatalog`),
3. key statistics — access cost, cardinalities, selectivities
   (:class:`StatisticsRegistry`).

It also keeps the registry of :class:`~repro.network.source.DataSource`
objects themselves so that the execution engine can open wrappers by name.
"""

from __future__ import annotations

from repro.catalog.overlap import OverlapCatalog
from repro.catalog.source_desc import SourceDescription
from repro.catalog.statistics import SourceStatistics, StatisticsRegistry
from repro.errors import CatalogError
from repro.network.source import DataSource


class DataSourceCatalog:
    """Registry of data sources, their descriptions, overlap info, and statistics."""

    def __init__(self, default_cardinality: int = 10_000) -> None:
        self._sources: dict[str, DataSource] = {}
        self._descriptions: dict[str, SourceDescription] = {}
        self.statistics = StatisticsRegistry(default_cardinality=default_cardinality)
        self.overlap = OverlapCatalog()

    # -- registration -----------------------------------------------------------

    def register_source(
        self,
        source: DataSource,
        description: SourceDescription | None = None,
        statistics: SourceStatistics | None = None,
        publish_statistics: bool = True,
    ) -> None:
        """Register a data source.

        Parameters
        ----------
        source:
            The simulated data source.
        description:
            Semantic description; when omitted, the source is assumed to
            completely provide a mediated relation with the same name as its
            relation.
        statistics:
            Explicit statistics.  When omitted and ``publish_statistics`` is
            true, accurate cardinality/size statistics are derived from the
            source itself (the "sources export their own stats" case); when
            ``publish_statistics`` is false, the catalog records nothing,
            modelling an autonomous source with no metadata.
        """
        if source.name in self._sources:
            raise CatalogError(f"source {source.name!r} is already registered")
        self._sources[source.name] = source
        if description is None:
            description = SourceDescription(
                source_name=source.name, mediated_relation=source.relation.name
            )
        if description.source_name != source.name:
            raise CatalogError(
                f"description is for {description.source_name!r}, not {source.name!r}"
            )
        self._descriptions[source.name] = description
        if statistics is not None:
            self.statistics.set_source(source.name, statistics)
        elif publish_statistics:
            self.statistics.set_source(
                source.name,
                SourceStatistics(
                    cardinality=source.relation.cardinality,
                    tuple_size_bytes=source.relation.schema.tuple_size,
                    access_cost_ms=source.profile.initial_latency_ms,
                    transfer_rate_kbps=source.profile.bandwidth_kbps,
                    # Published in *encoded* columnar units (dictionary codes
                    # for strings) — the unit hash-table budgets charge, so
                    # optimizer allotments stated in it are the runtime
                    # overflow thresholds.
                    columnar_tuple_size_bytes=source.relation.schema.encoded_row_size,
                ),
            )

    # -- lookup ------------------------------------------------------------------

    def source(self, name: str) -> DataSource:
        try:
            return self._sources[name]
        except KeyError:
            raise CatalogError(f"unknown data source {name!r}") from None

    def description(self, name: str) -> SourceDescription:
        try:
            return self._descriptions[name]
        except KeyError:
            raise CatalogError(f"no description for source {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    @property
    def source_names(self) -> list[str]:
        return sorted(self._sources)

    def sources_for_relation(self, mediated_relation: str) -> list[str]:
        """Names of sources that provide ``mediated_relation`` (sorted)."""
        return sorted(
            name
            for name, desc in self._descriptions.items()
            if desc.mediated_relation == mediated_relation
        )

    # -- statistics convenience -----------------------------------------------------

    def record_observed_cardinality(self, source_name: str, cardinality: int) -> None:
        """Feed back an observed cardinality from the execution engine.

        Intermediate results are recorded under their fragment/result name, so
        names that are not registered sources are accepted.
        """
        self.statistics.update_cardinality(source_name, cardinality)
