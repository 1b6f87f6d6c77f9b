"""In-memory relations (base tables and materialized intermediate results)."""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError, StorageError
from repro.storage.batch import Batch, transpose_rows
from repro.storage.schema import Schema
from repro.storage.tuples import Key, KeyBinder, Row, rows_from_dicts


class Relation:
    """A named bag of rows sharing one schema.

    Relations are the substrate behind simulated data sources, the local
    store, and materialization points between plan fragments.  They support
    the small relational algebra needed by tests and by the reference
    (non-adaptive) evaluator used to cross-check operator results.

    Columnar batches appended via :meth:`extend_batch` are kept in their
    struct-of-arrays form and only converted into :class:`Row` objects when
    something actually reads rows — callers that just need the cardinality
    (benchmark drivers, materialization metadata) never pay for boxing.
    Pending batches always sit logically *after* ``_rows``; every row-level
    accessor and mutator materializes them first to preserve order.
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        self.name = name
        self.schema = schema
        self._rows: list[Row] = []
        self._pending: list[Batch] = []
        #: Cumulative row counts of ``_pending`` (``_pending_ends[i]`` rows
        #: sit in batches ``0..i``), so one row is found by bisection.
        self._pending_ends: list[int] = []
        if rows:
            self.extend(rows)

    def _materialize_pending(self) -> None:
        """Convert any buffered columnar batches into rows (order-preserving)."""
        if self._pending:
            # Each batch is dropped as soon as it is boxed, so the peak holds
            # one representation of the result plus one batch, not both.
            pending, self._pending = self._pending[::-1], []
            self._pending_ends = []
            while pending:
                self._rows.extend(pending.pop().rows())

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, name: str, schema: Schema, records: Sequence[dict[str, Any]]
    ) -> "Relation":
        """Build a relation from dict records keyed by attribute name."""
        return cls(name, schema, rows_from_dicts(schema, records))

    @classmethod
    def from_values(
        cls, name: str, schema: Schema, values: Sequence[Sequence[Any]]
    ) -> "Relation":
        """Build a relation from positional value vectors."""
        return cls(name, schema, (Row(schema, tuple(v)) for v in values))

    def qualified(self) -> "Relation":
        """Copy with every attribute qualified by the relation name."""
        schema = self.schema.qualified(self.name)
        make = Row.make
        relation = Relation(self.name, schema)
        # Qualification renames attributes 1:1, so the rows transfer as-is.
        self._materialize_pending()
        relation._rows = [make(schema, r.values, r.arrival) for r in self._rows]
        return relation

    # -- mutation ---------------------------------------------------------------

    def append(self, row: Row) -> None:
        """Append one row; its schema must match this relation's schema arity/types."""
        if len(row.values) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row.values)} does not match relation "
                f"{self.name!r} arity {len(self.schema)}"
            )
        self._materialize_pending()
        self._rows.append(row)

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many rows (validated in bulk)."""
        rows = rows if isinstance(rows, list) else list(rows)
        arity = len(self.schema)
        for row in rows:
            if len(row.values) != arity:
                raise SchemaError(
                    f"row arity {len(row.values)} does not match relation "
                    f"{self.name!r} arity {arity}"
                )
        self._materialize_pending()
        self._rows.extend(rows)

    def extend_batch(self, batch: Batch) -> None:
        """Append a whole batch; columnar batches are buffered without boxing."""
        if len(batch.schema) != len(self.schema):
            raise SchemaError(
                f"batch arity {len(batch.schema)} does not match relation "
                f"{self.name!r} arity {len(self.schema)}"
            )
        if batch.is_columnar:
            self._pending.append(batch)
            ends = self._pending_ends
            ends.append((ends[-1] if ends else 0) + len(batch))
        else:
            self._materialize_pending()
            self._rows.extend(batch.rows())

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows) + (self._pending_ends[-1] if self._pending_ends else 0)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    @property
    def rows(self) -> list[Row]:
        """The row list (not a copy; treat as read-only)."""
        self._materialize_pending()
        return self._rows

    def row_at(self, index: int, arrival: float) -> Row | None:
        """Row ``index`` stamped ``arrival``; ``None`` past the end.

        Boxes exactly the row asked for: one still held in a buffered
        columnar batch is read out of that batch's columns in place, so the
        batches stay columnar for later :meth:`column_block` reads.
        """
        rows = self._rows
        if index < len(rows):
            return rows[index].with_arrival(arrival)
        index -= len(rows)
        ends = self._pending_ends
        at = bisect_right(ends, index)
        if at == len(ends):
            return None
        batch = self._pending[at]
        if at:
            index -= ends[at - 1]
        return Row.make(batch.schema, tuple(c[index] for c in batch.columns), arrival)

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self)

    @property
    def size_bytes(self) -> int:
        """Estimated total size, used to express scale factors in bytes."""
        return self.schema.tuple_size * len(self)

    def column_block(self, start: int, max_rows: int) -> tuple[list[list[Any]], int]:
        """Columnar block read: ``(columns, count)`` for rows ``[start, start+max_rows)``.

        When the relation still holds only buffered columnar batches (a
        fragment result that nothing has read row-wise yet), the block is
        sliced straight from their column lists — no :class:`Row` objects are
        created.  Otherwise the row list is transposed, which materializes
        pending batches first.
        """
        if self._pending and not self._rows:
            columns: list[list[Any]] = [[] for _ in range(len(self.schema))]
            count = 0
            offset = 0
            end = start + max_rows
            for batch in self._pending:
                batch_start = offset
                offset += len(batch)
                if offset <= start:
                    continue
                if batch_start >= end:
                    break
                lo = max(start, batch_start) - batch_start
                hi = min(end, offset) - batch_start
                for acc, column in zip(columns, batch.columns):
                    acc.extend(column[lo:hi])
                count += hi - lo
            return columns, count
        block = self.rows[start : start + max_rows]
        if not block:
            return [[] for _ in range(len(self.schema))], 0
        return transpose_rows(block), len(block)

    def column(self, name: str) -> list[Any]:
        """All values of attribute ``name``, in row order."""
        idx = self.schema.index_of(name)
        if not self._rows and self._pending:
            # Fast path: serve straight from the buffered column lists.
            out: list[Any] = []
            for batch in self._pending:
                out.extend(batch.column(idx))
            return out
        return [row.values[idx] for row in self.rows]

    def distinct_count(self, name: str) -> int:
        """Number of distinct values of attribute ``name``."""
        return len(set(self.column(name)))

    # -- reference relational algebra (used by tests and the catalog) -----------

    def select(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Rows satisfying ``predicate``."""
        out = Relation(name or self.name, self.schema)
        out.extend(row for row in self.rows if predicate(row))
        return out

    def project(self, names: Sequence[str], name: str | None = None) -> "Relation":
        """Projection onto ``names`` (a bag projection: duplicates retained)."""
        schema = self.schema.project(names)
        out = Relation(name or self.name, schema)
        out.extend(row.project(names, schema) for row in self.rows)
        return out

    def join(
        self,
        other: "Relation",
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        name: str | None = None,
    ) -> "Relation":
        """Reference hash equi-join used to validate the engine's join operators."""
        if len(left_keys) != len(right_keys):
            raise StorageError("join key lists must have equal length")
        schema = self.schema.join(other.schema)
        out = Relation(name or f"{self.name}_join_{other.name}", schema)
        index: dict[Key, list[Row]] = {}
        left_key, right_key = KeyBinder(left_keys).key, KeyBinder(right_keys).key
        for row in other:
            index.setdefault(right_key(row), []).append(row)
        for row in self:
            for match in index.get(left_key(row), ()):
                out.append(row.concat(match, schema))
        return out

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Bag union with ``other`` (schemas must be type-compatible)."""
        if not self.schema.compatible_with(other.schema):
            raise SchemaError(
                f"cannot union {self.name!r} and {other.name!r}: incompatible schemas"
            )
        out = Relation(name or f"{self.name}_union_{other.name}", self.schema)
        out.extend(self.rows)
        out.extend(Row(self.schema, r.values, r.arrival) for r in other)
        return out

    def distinct(self, name: str | None = None) -> "Relation":
        """Set-semantics copy (first occurrence of each value vector kept)."""
        seen: set[tuple[Any, ...]] = set()
        out = Relation(name or self.name, self.schema)
        for row in self.rows:
            if row.values not in seen:
                seen.add(row.values)
                out.append(row)
        return out

    def multiset(self) -> dict[tuple[Any, ...], int]:
        """Value-vector multiset, for order-insensitive result comparison."""
        counts: dict[tuple[Any, ...], int] = {}
        for row in self.rows:
            counts[row.values] = counts.get(row.values, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, {len(self)} rows, {self.schema.names})"
