"""Query reformulation: mediated queries to source-level queries.

The reformulator rewrites a conjunctive query over the mediated schema into a
query over the data sources.  In this reproduction (matching the paper's
scope), the output is a single conjunctive query whose *leaves* may be
disjunctive: each mediated relation is replaced by the set of sources that
can supply it.  Leaves with more than one alternative are later turned into
dynamic collector operators by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import DataSourceCatalog
from repro.errors import ReformulationError
from repro.query.conjunctive import ConjunctiveQuery


@dataclass(frozen=True)
class LeafAlternative:
    """One way of obtaining a mediated relation: a specific source."""

    source_name: str
    complete: bool
    coverage: float


@dataclass(frozen=True)
class DisjunctiveLeaf:
    """A mediated relation together with all sources that can supply it.

    ``alternatives`` is ordered: complete sources first, then by coverage
    (descending), then by estimated access cost.  The first alternative is
    the *primary* source the optimizer plans against.
    """

    mediated_relation: str
    alternatives: tuple[LeafAlternative, ...]

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ReformulationError(
                f"no sources available for mediated relation {self.mediated_relation!r}"
            )

    @property
    def primary(self) -> LeafAlternative:
        return self.alternatives[0]

    @property
    def is_disjunctive(self) -> bool:
        return len(self.alternatives) > 1

    @property
    def source_names(self) -> list[str]:
        return [alt.source_name for alt in self.alternatives]


@dataclass(frozen=True)
class ReformulatedQuery:
    """The reformulator's output: the original query plus its leaves."""

    query: ConjunctiveQuery
    leaves: dict[str, DisjunctiveLeaf] = field(default_factory=dict)

    def leaf(self, mediated_relation: str) -> DisjunctiveLeaf:
        try:
            return self.leaves[mediated_relation]
        except KeyError:
            raise ReformulationError(
                f"query {self.query.name!r} has no leaf for {mediated_relation!r}"
            ) from None


class Reformulator:
    """Rewrites mediated queries into source-level queries using the catalog."""

    def __init__(self, catalog: DataSourceCatalog) -> None:
        self.catalog = catalog

    def _rank_alternatives(self, relation: str, source_names: list[str]) -> list[LeafAlternative]:
        alternatives = []
        for name in source_names:
            description = self.catalog.description(name)
            alternatives.append(
                LeafAlternative(
                    source_name=name,
                    complete=description.complete,
                    coverage=description.coverage,
                )
            )
        stats = self.catalog.statistics

        def sort_key(alt: LeafAlternative):
            access_cost = stats.source(alt.source_name).access_cost_ms
            return (
                0 if alt.complete else 1,
                -alt.coverage,
                access_cost if access_cost is not None else float("inf"),
                alt.source_name,
            )

        return sorted(alternatives, key=sort_key)

    def reformulate(self, query: ConjunctiveQuery) -> ReformulatedQuery:
        """Map every relation in ``query`` to its candidate sources.

        Raises
        ------
        ReformulationError
            If any mediated relation has no registered source.
        """
        leaves: dict[str, DisjunctiveLeaf] = {}
        for relation in query.relations:
            source_names = self.catalog.sources_for_relation(relation)
            if not source_names:
                raise ReformulationError(
                    f"no data source provides mediated relation {relation!r} "
                    f"(query {query.name!r})"
                )
            alternatives = self._rank_alternatives(relation, source_names)
            leaves[relation] = DisjunctiveLeaf(relation, tuple(alternatives))
        return ReformulatedQuery(query=query, leaves=leaves)
