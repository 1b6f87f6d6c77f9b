"""Semantic source descriptions.

A :class:`SourceDescription` states which mediated relation a data source
provides (or partially provides), how its exported attributes map onto the
mediated relation's attributes, and whether the source is complete for that
relation.  The reformulator uses these descriptions to rewrite mediated
queries into source-level queries with disjunction at the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError


@dataclass(frozen=True)
class SourceDescription:
    """Describes one data source's contents in terms of the mediated schema.

    Parameters
    ----------
    source_name:
        Name of the data source (matches :class:`~repro.network.source.DataSource`).
    mediated_relation:
        The mediated relation this source provides tuples for.
    attribute_map:
        Mapping from mediated attribute base names to the source's attribute
        base names.  An empty map means the names coincide.
    complete:
        Whether the source is believed to contain *all* tuples of the
        mediated relation (local completeness).
    coverage:
        Estimated fraction of the mediated relation's extension present at
        this source (1.0 for complete sources).
    """

    source_name: str
    mediated_relation: str
    attribute_map: dict[str, str] = field(default_factory=dict)
    complete: bool = True
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if not self.source_name:
            raise CatalogError("source description requires a source name")
        if not self.mediated_relation:
            raise CatalogError("source description requires a mediated relation")
        if not 0.0 < self.coverage <= 1.0:
            raise CatalogError(f"coverage must be in (0, 1], got {self.coverage}")
        if self.complete and self.coverage < 1.0:
            raise CatalogError(
                f"source {self.source_name!r} declared complete but coverage is "
                f"{self.coverage}"
            )
