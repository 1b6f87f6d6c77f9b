"""Tuples: the unit of data flowing through the execution engine.

A :class:`Row` couples a value vector with its :class:`~repro.storage.schema.Schema`
and carries a virtual-time ``arrival`` stamp assigned by the wrapper or source
that produced it.  Operators propagate and update the stamp so that the engine
can report tuples-vs-time series (the x/y axes of the paper's figures).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.schema import Schema

#: A join / dedup / bind / partition key: the key attribute's value itself when
#: there is one, the tuple of their values otherwise (what an ``itemgetter``
#: over the key positions returns).  No attribute type holds tuples, so a key
#: is a tuple exactly when it is composite (``hash_table.bucket_of`` relies on it).
Key = Any


class RowConstructionCounter:
    """Counts every :class:`Row` constructed while enabled.

    The columnar storage layer promises that hash-table insert/probe and
    spill write/read hot paths never box rows; tests enable this counter
    around those operations to assert the promise holds.  Disabled (the
    default) the per-construction cost is a single predicate check.
    """

    __slots__ = ("enabled", "count")

    def __init__(self) -> None:
        self.enabled = False
        self.count = 0


#: Module-wide counter consulted by both Row constructors.
ROW_CONSTRUCTIONS = RowConstructionCounter()


@contextmanager
def counting_row_constructions():
    """Enable :data:`ROW_CONSTRUCTIONS` for a scope; yields the counter."""
    counter = ROW_CONSTRUCTIONS
    saved_enabled, saved_count = counter.enabled, counter.count
    counter.enabled = True
    counter.count = 0
    try:
        yield counter
    finally:
        counter.enabled = saved_enabled
        counter.count = saved_count


@dataclass(frozen=True, slots=True)
class Row:
    """An immutable tuple of values bound to a schema.

    Parameters
    ----------
    schema:
        The schema describing ``values``.
    values:
        Attribute values, in schema order.
    arrival:
        Virtual time at which this tuple became available to its consumer.
    """

    schema: Schema
    values: tuple[Any, ...]
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if ROW_CONSTRUCTIONS.enabled:
            ROW_CONSTRUCTIONS.count += 1
        if len(self.values) != len(self.schema):
            raise SchemaError(
                f"value arity {len(self.values)} does not match schema arity "
                f"{len(self.schema)} ({self.schema.names})"
            )

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key: str | int) -> Any:
        if isinstance(key, int):
            return self.values[key]
        return self.values[self.schema.index_of(key)]

    def get(self, name: str, default: Any = None) -> Any:
        """Value of attribute ``name``, or ``default`` when absent."""
        try:
            return self[name]
        except SchemaError:
            return default

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[str, Any]:
        """Mapping of fully qualified attribute name to value."""
        return dict(zip(self.schema.names, self.values))

    # -- derivation -----------------------------------------------------------

    @classmethod
    def make(cls, schema: Schema, values: tuple[Any, ...], arrival: float = 0.0) -> "Row":
        """Fast constructor for callers that guarantee ``values`` fits ``schema``.

        Skips the dataclass ``__init__``/``__post_init__`` arity validation —
        row construction sits on the engine's per-tuple hot path, and the
        derivation helpers below (plus the batch operator paths) build values
        directly from a schema they also produce.
        """
        if ROW_CONSTRUCTIONS.enabled:
            ROW_CONSTRUCTIONS.count += 1
        row = object.__new__(cls)
        object.__setattr__(row, "schema", schema)
        object.__setattr__(row, "values", values)
        object.__setattr__(row, "arrival", arrival)
        return row

    def with_arrival(self, arrival: float) -> "Row":
        """Copy of this row with a different arrival stamp."""
        return Row.make(self.schema, self.values, arrival)


class KeyBinder:
    """Resolves a fixed key (a list of attribute names) to value positions.

    The names are resolved to indices once per observed schema instance
    (batches of one stream share theirs) and re-bound if the schema changes,
    so key columns are extracted by position, never by name per row.  Used by
    the join operators and the bucketed hash table.
    """

    __slots__ = ("names", "single", "_schema", "_indices")

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        #: One key attribute — keys are bare values.  The one place arity is known.
        self.single = len(self.names) == 1
        self._schema: Schema | None = None
        self._indices: tuple[int, ...] = ()

    def indices_in(self, schema: Schema) -> tuple[int, ...]:
        """Value indices of the key attributes in ``schema`` (cached per schema)."""
        if schema is not self._schema:
            self._indices = tuple(schema.index_of(name) for name in self.names)
            self._schema = schema
        return self._indices
