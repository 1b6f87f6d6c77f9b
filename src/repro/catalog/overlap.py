"""Overlap information between data sources.

The catalog records, for pairs of sources exporting the same mediated
relation, the probability that a data value appearing in one source also
appears in the other (following the probabilistic model of Florescu, Koller
and Levy).  The collector's policy generator uses this to order source
accesses and pick fallback mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError


@dataclass(frozen=True)
class OverlapEntry:
    """P(value in ``contained``  |  value in ``container``)."""

    container: str
    contained: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise CatalogError(
                f"overlap probability must be in [0, 1], got {self.probability}"
            )


class OverlapCatalog:
    """Pairwise overlap probabilities and mirror relationships."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], float] = {}

    def set_overlap(self, container: str, contained: str, probability: float) -> None:
        """Record P(value appears in ``contained`` | it appears in ``container``)."""
        entry = OverlapEntry(container, contained, probability)
        self._entries[(container, contained)] = entry.probability

    def set_mirrors(self, source_a: str, source_b: str) -> None:
        """Declare two sources to be full mirrors of each other."""
        self.set_overlap(source_a, source_b, 1.0)
        self.set_overlap(source_b, source_a, 1.0)

    def overlap(self, container: str, contained: str) -> float:
        """Recorded overlap probability, or 0.0 when unknown."""
        return self._entries.get((container, contained), 0.0)

    def rank_by_coverage(self, primary: str, candidates: list[str]) -> list[str]:
        """Candidates ordered by how much of ``primary`` they cover (descending)."""
        return sorted(
            (c for c in candidates if c != primary),
            key=lambda c: (-self.overlap(primary, c), c),
        )
