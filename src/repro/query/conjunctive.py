"""Conjunctive (select-project-join) queries over the mediated schema.

Tukwila restricts its discussion to conjunctive queries, possibly with
*disjunction at the leaves* introduced by the reformulator (a leaf may be
answered by any of several overlapping sources).  This module defines the
query representation used throughout the optimizer and execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import QueryError

#: Comparison operators supported in selection predicates.
COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_table.left_attr = right_table.right_attr``."""

    left_table: str
    left_attr: str
    right_table: str
    right_attr: str

    def __post_init__(self) -> None:
        if self.left_table == self.right_table:
            raise QueryError(
                f"join predicate must reference two distinct relations, got "
                f"{self.left_table!r} on both sides"
            )

    @property
    def left_qualified(self) -> str:
        return f"{self.left_table}.{self.left_attr}"

    @property
    def right_qualified(self) -> str:
        return f"{self.right_table}.{self.right_attr}"

    def tables(self) -> frozenset[str]:
        return frozenset((self.left_table, self.right_table))

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def oriented(self, left_first: str) -> "JoinPredicate":
        """Return a copy with ``left_first`` as the left table."""
        if left_first == self.left_table:
            return self
        if left_first == self.right_table:
            return JoinPredicate(
                self.right_table, self.right_attr, self.left_table, self.left_attr
            )
        raise QueryError(f"{left_first!r} is not part of predicate {self}")

    def __str__(self) -> str:
        return f"{self.left_qualified} = {self.right_qualified}"


@dataclass(frozen=True)
class SelectionPredicate:
    """A single-table comparison ``table.attr <op> value``."""

    table: str
    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise QueryError(
                f"unsupported comparator {self.op!r}; expected one of {sorted(COMPARATORS)}"
            )

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.attr}"

    def evaluate(self, value: Any) -> bool:
        """Apply the comparison to a concrete attribute value."""
        return COMPARATORS[self.op](value, self.value)

    def __str__(self) -> str:
        return f"{self.qualified} {self.op} {self.value!r}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A select-project-join query over mediated relations.

    Parameters
    ----------
    name:
        Identifier used in plans, logs, and reports.
    relations:
        Mediated relation names referenced by the query.
    join_predicates:
        Equi-join predicates connecting the relations.
    selections:
        Single-table filters.
    projection:
        Output attribute names (qualified); empty means ``SELECT *``.
    """

    name: str
    relations: tuple[str, ...] | list[str]
    join_predicates: tuple[JoinPredicate, ...] | list[JoinPredicate] = field(
        default_factory=tuple
    )
    selections: tuple[SelectionPredicate, ...] | list[SelectionPredicate] = field(
        default_factory=tuple
    )
    projection: tuple[str, ...] | list[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        relations = tuple(self.relations)
        if not relations:
            raise QueryError("a conjunctive query must reference at least one relation")
        if len(set(relations)) != len(relations):
            raise QueryError(f"duplicate relations in query {self.name!r}: {relations}")
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "join_predicates", tuple(self.join_predicates))
        object.__setattr__(self, "selections", tuple(self.selections))
        object.__setattr__(self, "projection", tuple(self.projection))
        for pred in self.join_predicates:
            missing = pred.tables() - set(relations)
            if missing:
                raise QueryError(
                    f"join predicate {pred} references relations {sorted(missing)} "
                    f"not listed in query {self.name!r}"
                )
        for sel in self.selections:
            if sel.table not in relations:
                raise QueryError(
                    f"selection {sel} references relation {sel.table!r} not in query"
                )

    # -- structure -------------------------------------------------------------

    def join_connected(self) -> bool:
        """True when the join graph over the query's relations is connected."""
        if len(self.relations) <= 1:
            return True
        seen = {self.relations[0]}
        frontier = [self.relations[0]]
        while frontier:
            current = frontier.pop()
            for pred in self.join_predicates:
                if pred.involves(current):
                    for other in pred.tables() - {current}:
                        if other not in seen:
                            seen.add(other)
                            frontier.append(other)
        return seen == set(self.relations)

    def __str__(self) -> str:
        parts = [f"SELECT {', '.join(self.projection) if self.projection else '*'}"]
        parts.append(f"FROM {', '.join(self.relations)}")
        conditions = [str(p) for p in self.join_predicates] + [str(s) for s in self.selections]
        if conditions:
            parts.append("WHERE " + " AND ".join(conditions))
        return " ".join(parts)
