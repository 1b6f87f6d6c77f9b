"""In-memory relations (base tables and materialized intermediate results)."""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.batch import Batch, transpose_rows
from repro.storage.columns import empty_like, gather_into, picker
from repro.storage.schema import Schema
from repro.storage.tuples import Row


class Relation:
    """A named bag of rows sharing one schema.

    Relations are the substrate behind simulated data sources, the local
    store, and materialization points between plan fragments.

    Batches appended via :meth:`extend_batch` are kept in their
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
        #: sit in batches ``0..i``): the length without boxing.
        self._pending_ends: list[int] = []
        if rows:
            self.extend(rows)

    def _materialize_pending(self) -> None:
        """Convert any buffered batches into rows (order-preserving)."""
        if self._pending:
            # Each batch is dropped as soon as it is boxed, so the peak holds
            # one representation of the result plus one batch, not both.
            pending, self._pending = self._pending[::-1], []
            self._pending_ends = []
            while pending:
                self._rows.extend(pending.pop().rows())

    # -- construction ----------------------------------------------------------

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
        """Append a whole batch, buffered as columns without boxing."""
        if len(batch.schema) != len(self.schema):
            raise SchemaError(
                f"batch arity {len(batch.schema)} does not match relation "
                f"{self.name!r} arity {len(self.schema)}"
            )
        self._pending.append(batch)
        ends = self._pending_ends
        ends.append((ends[-1] if ends else 0) + len(batch))

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows) + (self._pending_ends[-1] if self._pending_ends else 0)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def arrivals(self) -> Iterator[float]:
        """Every row's arrival stamp, in row order, without boxing a row."""
        return chain((row.arrival for row in self._rows), *(b.arrivals for b in self._pending))

    @property
    def rows(self) -> list[Row]:
        """The row list (not a copy; treat as read-only)."""
        self._materialize_pending()
        return self._rows

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
        sliced straight from their columns — no :class:`Row` objects are
        created, and strings stay codes: the accumulators take the storage
        classes of the first batch the block reaches, and a column whose
        batches disagree on the dictionary degrades to values.  Otherwise the
        row list is transposed, which materializes pending batches first.
        """
        if self._pending and not self._rows:
            columns: list | None = None
            count = 0
            end = start + max_rows
            pending, ends = self._pending, self._pending_ends
            # From the first batch holding row ``start``, found by bisection.
            for index in range(bisect_right(ends, start), len(pending)):
                batch_start = ends[index - 1] if index else 0
                if batch_start >= end:
                    break
                lo = max(start, batch_start) - batch_start
                hi = min(end, ends[index]) - batch_start
                if hi <= lo:
                    continue  # an empty batch inside the block
                sources = pending[index].columns
                if columns is None:
                    columns = [empty_like(column) for column in sources]
                gather_into(columns, 0, sources, picker(range(lo, hi)))
                count += hi - lo
            if columns is None:
                columns = [[] for _ in range(len(self.schema))]
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

    # -- projection and result comparison -------------------------------------------

    def project(self, names: Sequence[str], name: str | None = None) -> "Relation":
        """Projection onto ``names`` (a bag projection: duplicates retained)."""
        schema = self.schema.project(names)
        out = Relation(name or self.name, schema)
        out.extend(row.project(names, schema) for row in self.rows)
        return out

    def multiset(self) -> dict[tuple[Any, ...], int]:
        """Value-vector multiset, for order-insensitive result comparison."""
        counts: dict[tuple[Any, ...], int] = {}
        for row in self.rows:
            counts[row.values] = counts.get(row.values, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, {len(self)} rows, {self.schema.names})"
