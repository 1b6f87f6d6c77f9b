"""Relational schemas.

A :class:`Schema` is an ordered list of named, typed attributes.  Schemas are
immutable value objects: all combinators (:meth:`Schema.project`,
:meth:`Schema.join`, :meth:`Schema.rename`) return new instances.

Attribute names are qualified as ``relation.attribute`` whenever the schema is
attached to a named relation, which keeps join outputs unambiguous when both
inputs expose an attribute with the same base name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import SchemaError

#: Logical attribute types supported by the storage layer.  The values are the
#: estimated per-value footprint in bytes, used for memory accounting.
TYPE_SIZES = {
    "int": 8,
    "float": 8,
    "str": 32,
    "date": 8,
    "bool": 1,
}

#: Per-value footprint in *columnar* storage for the types the *modelled*
#: engine packs (8 bytes, no per-value object).  The byte model is the
#: paper's engine's, not this process's: Python columns are plain lists of
#: the source's own objects, and every overflow point, spilled byte and
#: virtual millisecond follows these numbers, never the container.  Every
#: other type — including ``date`` and ``bool`` — charges its estimated
#: payload plus one column-slot pointer.
COLUMNAR_VALUE_SIZES = {
    "int": 8,
    "float": 8,
}

#: Per-value footprint for attribute types that *dictionary-encode* in the
#: encoded columnar layer: one 8-byte code per row (modelled).  Dictionary
#: entries themselves are charged separately (actual value bytes plus a slot
#: pointer, once per distinct value) by the containers that own them.
ENCODED_VALUE_SIZES = {
    "str": 8,
}

#: Bytes charged per row for the parallel arrival-stamp column.
ARRIVAL_STAMP_BYTES = 8

#: Pointer overhead per value for columns stored as object lists.
COLUMN_SLOT_BYTES = 8


@dataclass(frozen=True)
class Attribute:
    """A single named, typed column.

    Parameters
    ----------
    name:
        Attribute name, optionally qualified (``"orders.o_orderkey"``).
    type_name:
        One of :data:`TYPE_SIZES` keys.
    avg_size:
        Estimated per-value size in bytes; defaults to the type's size.
    """

    name: str
    type_name: str = "str"
    avg_size: int = 0

    def __post_init__(self) -> None:
        if self.type_name not in TYPE_SIZES:
            raise SchemaError(
                f"unknown attribute type {self.type_name!r} for {self.name!r}; "
                f"expected one of {sorted(TYPE_SIZES)}"
            )
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.avg_size <= 0:
            object.__setattr__(self, "avg_size", TYPE_SIZES[self.type_name])

    @property
    def base_name(self) -> str:
        """Attribute name without any relation qualifier."""
        return self.name.rsplit(".", 1)[-1]

    def qualified(self, relation_name: str) -> "Attribute":
        """Return a copy qualified with ``relation_name`` (replacing any prior one)."""
        return Attribute(f"{relation_name}.{self.base_name}", self.type_name, self.avg_size)

    @property
    def column_size(self) -> int:
        """Estimated per-value bytes in columnar (struct-of-arrays) storage."""
        fixed = COLUMNAR_VALUE_SIZES.get(self.type_name)
        if fixed is not None:
            return fixed
        return self.avg_size + COLUMN_SLOT_BYTES

    @property
    def encoded_column_size(self) -> int:
        """Estimated per-value bytes in *encoded* columnar storage.

        Dict-encodable attributes charge one code slot per row; everything
        else charges the plain columnar estimate.  Dictionary entries are
        charged separately by their owners (once per distinct value), so
        this is the per-row marginal cost.
        """
        fixed = ENCODED_VALUE_SIZES.get(self.type_name)
        if fixed is not None:
            return fixed
        return self.column_size


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of :class:`Attribute`.

    Lookup by name accepts either the fully qualified name or the base name,
    provided the base name is unambiguous.
    """

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {dupes}")
        # Lazy per-instance caches (the dataclass is frozen, hence the
        # object.__setattr__): name-resolution and tuple-size lookups sit on
        # the engine's per-row hot paths, and a schema never changes after
        # construction.  Neither cache participates in equality or hashing.
        object.__setattr__(self, "_index_cache", {})
        object.__setattr__(self, "_tuple_size", None)
        object.__setattr__(self, "_encoded_row_size", None)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *specs: str | Attribute | tuple[str, str]) -> "Schema":
        """Build a schema from a mix of specs.

        Each spec may be an :class:`Attribute`, a bare name (typed ``str``),
        a ``"name:type"`` string, or a ``(name, type)`` tuple.
        """
        attrs: list[Attribute] = []
        for spec in specs:
            if isinstance(spec, Attribute):
                attrs.append(spec)
            elif isinstance(spec, tuple):
                name, type_name = spec
                attrs.append(Attribute(name, type_name))
            elif ":" in spec:
                name, _, type_name = spec.partition(":")
                attrs.append(Attribute(name, type_name))
            else:
                attrs.append(Attribute(spec))
        return cls(tuple(attrs))

    # -- dunder protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    # -- lookup ----------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Fully qualified attribute names, in order."""
        return tuple(a.name for a in self.attributes)

    def index_of(self, name: str) -> int:
        """Return the position of ``name`` (qualified or base name).

        Raises
        ------
        SchemaError
            If the name is absent or a base name is ambiguous.
        """
        cached = self._index_cache.get(name)
        if cached is None:
            cached = self._resolve_index(name)
            self._index_cache[name] = cached
        if isinstance(cached, int):
            return cached
        raise SchemaError(cached)

    def _resolve_index(self, name: str) -> int | str:
        """Uncached lookup; returns the index or the error message to raise."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        matches = [i for i, attr in enumerate(self.attributes) if attr.base_name == name]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            return f"attribute name {name!r} is ambiguous in {self.names}"
        return f"attribute {name!r} not found in schema {self.names}"

    def attribute(self, name: str) -> Attribute:
        """Return the attribute named ``name`` (qualified or base name)."""
        return self.attributes[self.index_of(name)]

    # -- combinators -----------------------------------------------------------

    def qualified(self, relation_name: str) -> "Schema":
        """Qualify every attribute with ``relation_name``."""
        return Schema(tuple(a.qualified(relation_name) for a in self.attributes))

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names`` in the given order."""
        return Schema(tuple(self.attributes[self.index_of(n)] for n in names))

    def join(self, other: "Schema") -> "Schema":
        """Concatenation of two schemas (as produced by a join)."""
        return Schema(self.attributes + other.attributes)

    # -- sizing ----------------------------------------------------------------

    @property
    def tuple_size(self) -> int:
        """Estimated size in bytes of one tuple with this schema."""
        # A small per-tuple overhead models Python object headers / pointers in
        # the original engine's slotted pages.
        size = self._tuple_size
        if size is None:
            overhead = 16
            size = overhead + sum(a.avg_size for a in self.attributes)
            object.__setattr__(self, "_tuple_size", size)
        return size

    @property
    def encoded_row_size(self) -> int:
        """Estimated bytes one row occupies in encoded columnar storage.

        The sum of the per-column value footprints plus the parallel arrival
        stamp; there is no per-tuple object header because columnar storage
        holds no per-row objects.  Dict-encodable attributes charge one
        8-byte code per row (their dictionary entries are charged once per
        distinct value by the hash table or spill file that owns the
        dictionary).  The arrival stamp charges its full per-row footprint
        here — the resident worst case; run-length compression is credited
        at spill time, where runs are known exactly.  This is the unit the
        memory budgets and spill files charge — what the columns of the
        *modelled* engine cost (numbers and codes packed into 8 bytes), not
        what a Python list does — so an optimizer allotment stated in it
        *is* the runtime overflow threshold.
        """
        size = self._encoded_row_size
        if size is None:
            size = ARRIVAL_STAMP_BYTES + sum(a.encoded_column_size for a in self.attributes)
            object.__setattr__(self, "_encoded_row_size", size)
        return size

    def compatible_with(self, other: "Schema") -> bool:
        """True when both schemas have the same arity and attribute types."""
        if len(self) != len(other):
            return False
        return all(
            a.type_name == b.type_name for a, b in zip(self.attributes, other.attributes)
        )


def union_schema(schemas: Sequence[Schema | None]) -> Schema | None:
    """The output schema of a union, choose or collector over ``schemas``.

    Every input must match the first known one in arity and attribute types;
    the output keeps that input's names.  ``None`` is an input whose schema
    is not known yet (the static plan check): it is skipped, and the result
    is then ``None`` too, since that input could still differ at runtime.

    Raises :class:`SchemaError` naming the first incompatible input.
    """
    known = [(at, schema) for at, schema in enumerate(schemas) if schema is not None]
    if not known:
        return None
    first_position, first = known[0]
    for position, schema in known[1:]:
        if not first.compatible_with(schema):
            raise SchemaError(
                f"input #{position} is not compatible with input #{first_position}: "
                f"{list(schema.names)} vs {list(first.names)} (arity and "
                "attribute types must match)"
            )
    return first if len(known) == len(schemas) else None
