"""The mediated schema: the virtual relations users query against.

A :class:`MediatedSchema` names a set of virtual relations and their
attributes.  Relations are *virtual* — their extensions live only at the data
sources; the reformulator maps mediated relations to source relations using
the catalog's source descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError, SchemaError
from repro.storage.schema import Schema


@dataclass(frozen=True)
class MediatedRelation:
    """One virtual relation in the mediated schema."""

    name: str
    schema: Schema
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("mediated relation name must be non-empty")


class MediatedSchema:
    """A collection of mediated (virtual) relations."""

    def __init__(self, relations: list[MediatedRelation] | None = None) -> None:
        self._relations: dict[str, MediatedRelation] = {}
        for relation in relations or []:
            self.add(relation)

    def add(self, relation: MediatedRelation) -> None:
        """Register a relation; re-registering an existing name is an error."""
        if relation.name in self._relations:
            raise SchemaError(f"mediated relation {relation.name!r} already defined")
        self._relations[relation.name] = relation

    def add_relation(self, name: str, schema: Schema, description: str = "") -> MediatedRelation:
        """Convenience: build and register a relation in one step."""
        relation = MediatedRelation(name, schema, description)
        self.add(relation)
        return relation

    def get(self, name: str) -> MediatedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise QueryError(f"unknown mediated relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def validate_query_relations(self, relations: list[str] | tuple[str, ...]) -> None:
        """Raise :class:`QueryError` if any relation is not in the schema."""
        missing = [r for r in relations if r not in self._relations]
        if missing:
            raise QueryError(
                f"query references relations not in the mediated schema: {missing}"
            )
