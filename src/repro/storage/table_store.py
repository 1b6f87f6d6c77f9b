"""The local store: named relations materialized at fragment boundaries.

When a plan fragment completes, its result is materialized into the local
store so that (a) later fragments can scan it cheaply and (b) the optimizer
can be re-invoked with the *actual* cardinality of the intermediate result.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import StorageError
from repro.storage.relation import Relation


class LocalStore:
    """A dictionary of materialized relations, by name."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    def materialize(self, relation: Relation) -> None:
        """Store ``relation`` under its name, replacing any previous version."""
        self._relations[relation.name] = relation

    def get(self, name: str) -> Relation:
        """Fetch a materialized relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(f"no materialized relation named {name!r}") from None

    def column_block(self, name: str, start: int, max_rows: int):
        """Columnar batch read: ``(columns, count)`` without boxing rows.

        Serves straight from a relation still held as buffered columnar
        batches (see :meth:`Relation.column_block`), so a fragment result
        materialized columnar can be scanned columnar by a later fragment.
        """
        return self.get(name).column_block(start, max_rows)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)
