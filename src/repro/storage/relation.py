"""In-memory relations (base tables and materialized intermediate results)."""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.batch import Batch
from repro.storage.columns import (
    RunLengthArrivals,
    build_columns,
    empty_like,
    gather_into,
    make_dictionaries,
    picker,
)
from repro.storage.schema import Schema
from repro.storage.tuples import Row


class Relation:
    """A named bag of rows sharing one schema, held as column chunks.

    Relations are the substrate behind simulated data sources, the local
    store, and materialization points between plan fragments.  A relation is
    its schema plus a list of non-empty :class:`Batch` chunks in row order:
    the batches :meth:`extend_batch` appends (a materialized result), or one
    chunk per :meth:`from_values` / :meth:`extend` call, its string columns
    encoded over dictionaries of its own and frozen — the relation outlives
    any query, so a consumer mixing in foreign values degrades its own
    column and never grows these.  Readers take positions
    (:meth:`column_block`, :meth:`arrivals`); no :class:`Row` is held, and
    :attr:`rows`, iteration and indexing box rows afresh on every call.
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        self.name = name
        self.schema = schema
        self._chunks: list[Batch] = []
        #: Cumulative row counts of ``_chunks`` (``_ends[i]`` rows sit in
        #: chunks ``0..i``).
        self._ends: list[int] = []
        if rows:
            self.extend(rows)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_values(
        cls, name: str, schema: Schema, values: Sequence[Sequence[Any]]
    ) -> "Relation":
        """Build a relation from positional value vectors (one chunk, stamped 0)."""
        relation = cls(name, schema)
        values = values if isinstance(values, list) else list(values)
        relation._encode(values, RunLengthArrivals.constant(0.0, len(values)))
        return relation

    def _encode(self, vectors: list[Sequence[Any]], arrivals) -> None:
        """Append ``vectors`` as one chunk, encoded over frozen dictionaries."""
        arity = len(self.schema)
        for vector in vectors:
            if len(vector) != arity:
                raise SchemaError(
                    f"row arity {len(vector)} does not match relation "
                    f"{self.name!r} arity {arity}"
                )
        if not vectors:
            return
        dictionaries = make_dictionaries(self.schema)
        columns = build_columns(self.schema, list(zip(*vectors)), dictionaries)
        for dictionary in dictionaries:
            if dictionary is not None:
                dictionary.freeze()
        self.extend_batch(Batch(self.schema, columns, arrivals))

    # -- mutation ---------------------------------------------------------------

    def extend(self, rows: Iterable[Row]) -> None:
        """Append rows (values and stamps) as one encoded chunk."""
        rows = rows if isinstance(rows, list) else list(rows)
        self._encode([row.values for row in rows], [row.arrival for row in rows])

    def extend_batch(self, batch: Batch) -> None:
        """Append a whole batch as a chunk, as it is (empty batches add none)."""
        if len(batch.schema) != len(self.schema):
            raise SchemaError(
                f"batch arity {len(batch.schema)} does not match relation "
                f"{self.name!r} arity {len(self.schema)}"
            )
        if batch:
            self._chunks.append(batch)
            self._ends.append(len(self) + len(batch))

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(chunk.rows() for chunk in self._chunks)

    def __getitem__(self, index: int) -> Row:
        """Row ``index`` (negative counts from the end), boxed."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("relation index out of range")
        at = bisect_right(self._ends, index)
        return self._chunks[at][index - (self._ends[at - 1] if at else 0)]

    def arrivals(self) -> Iterator[float]:
        """Every row's arrival stamp, in row order, without boxing a row."""
        return chain.from_iterable(chunk.arrivals for chunk in self._chunks)

    @property
    def rows(self) -> list[Row]:
        """Every row, boxed afresh (for tests and reference evaluators)."""
        return list(self)

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self)

    def column_block(self, start: int, max_rows: int) -> tuple[list[list[Any]], int]:
        """Columnar block read: ``(columns, count)`` for rows ``[start, start+max_rows)``.

        No :class:`Row` is created, and strings stay codes.  A block inside
        one chunk is one slice per column (a dict column's slice shares its
        dictionary); a block across chunks accumulates in the storage
        classes of the first chunk it reaches, and a column whose chunks
        disagree on the dictionary degrades to values.
        """
        chunks, ends = self._chunks, self._ends
        first = bisect_right(ends, start)
        stop = min(start + max_rows, len(self))
        if stop <= start or first == len(chunks):
            return [[] for _ in range(len(self.schema))], 0
        if stop <= ends[first]:
            offset = ends[first - 1] if first else 0
            lo, hi = start - offset, stop - offset
            return [column[lo:hi] for column in chunks[first].columns], stop - start
        columns = [empty_like(column) for column in chunks[first].columns]
        for index in range(first, len(chunks)):
            chunk_start = ends[index - 1] if index else 0
            if chunk_start >= stop:
                break
            lo = max(start, chunk_start) - chunk_start
            hi = min(stop, ends[index]) - chunk_start
            gather_into(columns, 0, chunks[index].columns, picker(range(lo, hi)))
        return columns, stop - start

    # -- result comparison --------------------------------------------------------

    def multiset(self) -> dict[tuple[Any, ...], int]:
        """Value-vector multiset, for order-insensitive result comparison."""
        counts: dict[tuple[Any, ...], int] = {}
        for chunk in self._chunks:
            for values in zip(*chunk.columns) if chunk.columns else [()] * len(chunk):
                counts[values] = counts.get(values, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, {len(self)} rows, {self.schema.names})"
