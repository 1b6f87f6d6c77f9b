"""Columnar batches: the struct-of-arrays unit of vectorized execution.

A :class:`Batch` carries up to a few hundred tuples as one column per
attribute (a plain list of the source's own objects, or a dictionary-encoded
:class:`~repro.storage.columns.DictColumn`) plus a parallel column of arrival
stamps, all sharing one :class:`~repro.storage.schema.Schema`.  Keeping values
in columns lets operators work on whole batches with C-speed primitives —
``zip`` transposes, ``itemgetter`` gathers, slice copies, all of them pointer
moves — instead of creating one boxed :class:`~repro.storage.tuples.Row`
object per tuple.  Rows are only materialized lazily at the boundaries that
genuinely need them (the tuple-at-a-time drive, tests).

A batch may be *column-backed* or *row-backed*.  Operators with native
columnar paths (scans, select, project, all three hash joins) produce and
consume column-backed batches; operators that are inherently tuple-driven
(the dynamic collector's per-arrival child picking, the row-batch drive)
produce row-backed batches.  Either representation converts to the other
lazily and caches the result, so mixed pipelines compose without sprinkling
conversions through operator code.

Batches are immutable by contract: once a column list is handed to
``from_columns`` (or obtained from ``.columns``) it must not be mutated —
``select_columns`` and schema re-stamping alias column lists rather than
copying them.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, Sequence

from repro.storage.columns import (
    RunLengthArrivals,
    as_values,
    build_columns,
    empty_like,
    extend_column,
    gather as gather_column,
    picker,
)
from repro.storage.schema import Schema
from repro.storage.tuples import Key, Row


def transpose_rows(rows: Sequence[Row]) -> list[list[Any]]:
    """Column lists for ``rows`` (empty when ``rows`` is empty)."""
    if not rows:
        return []
    return [list(column) for column in zip(*(row.values for row in rows))]


def typed_transpose(
    schema: Schema,
    rows: Sequence[Row],
    encoded: bool = False,
    dictionaries: Sequence | None = None,
) -> list:
    """Columns for ``rows``, holding the rows' own values.

    With ``encoded`` true, string attributes dictionary-encode (into the
    supplied per-column ``dictionaries`` when given, so successive blocks
    from one producer share codes).
    """
    if not rows:
        return [[] for _ in range(len(schema))]
    return build_columns(schema, zip(*(row.values for row in rows)), encoded, dictionaries)


def gather_arrivals(arrivals, indices: Sequence[int], pick=None):
    """Arrival stamps at ``indices``, preserving run-length encoding
    (``pick`` is ``picker(indices)`` when the caller already holds one)."""
    if isinstance(arrivals, RunLengthArrivals):
        return arrivals.gather(indices)
    return list((pick or picker(indices))(arrivals))


def later_stamps(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """The later of two arrival stamps, pairwise — a join output's stamp.

    Ties keep ``a``'s stamp, as ``max(a, b)`` does; the comprehension is a
    quarter of ``map(max, a, b)``'s cost per row.
    """
    return [x if x >= y else y for x, y in zip(a, b)]


class Batch:
    """An ordered collection of tuples sharing one schema (see module docs)."""

    __slots__ = ("schema", "arrivals", "_columns", "_rows")

    def __init__(
        self,
        schema: Schema,
        arrivals: list[float],
        columns: list[list[Any]] | None = None,
        rows: list[Row] | None = None,
    ) -> None:
        if columns is None and rows is None:
            raise ValueError("a Batch needs columns, rows, or both")
        self.schema = schema
        self.arrivals = arrivals
        self._columns = columns
        self._rows = rows

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: list[Row]) -> "Batch":
        """Row-backed batch; arrival stamps are taken from the rows."""
        return cls(schema, [row.arrival for row in rows], rows=rows)

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: list[list[Any]], arrivals: list[float]
    ) -> "Batch":
        """Column-backed batch over ``columns`` (one list per attribute)."""
        return cls(schema, arrivals, columns=columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Batch":
        """The end-of-stream sentinel: zero rows (falsy)."""
        return cls(schema, [], columns=[[] for _ in range(len(schema))])

    @classmethod
    def concat(cls, schema: Schema, parts: Sequence["Batch"]) -> "Batch":
        """Concatenation of ``parts`` in order (columnar when all parts are)."""
        if not parts:
            return cls.empty(schema)
        if len(parts) == 1:
            return parts[0]
        if all(part._columns is not None for part in parts):
            # Accumulators clone the first non-empty part's storage classes so
            # dict-encoded columns stay encoded through concatenation; a
            # value that does not fit degrades that column to a list.
            first = next((p for p in parts if p.arrivals), parts[0])
            columns: list[list[Any]] = [empty_like(c) for c in first._columns]
            # Arrival accumulators keep run-length encoding when the first
            # non-empty part carries it (encoded-mode scan blocks).
            arrivals = (
                RunLengthArrivals()
                if isinstance(first.arrivals, RunLengthArrivals)
                else []
            )
            for part in parts:
                for position, column in enumerate(part._columns):
                    extend_column(columns, position, column)
                arrivals.extend(part.arrivals)
            return cls.from_columns(schema, columns, arrivals)
        rows: list[Row] = []
        for part in parts:
            # repro: allow[hot-path-row] row-backed concat: inputs are already boxed
            rows.extend(part.rows())
        return cls.from_rows(schema, rows)

    # -- sizing / truthiness ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.arrivals)

    def __bool__(self) -> bool:
        return bool(self.arrivals)

    @property
    def is_columnar(self) -> bool:
        """True when column lists are already materialized (native columnar path)."""
        return self._columns is not None

    # -- representation conversion (lazy, cached) ------------------------------

    @property
    def columns(self) -> list[list[Any]]:
        """Column lists, transposing from rows on first access."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            columns = transpose_rows(rows) if rows else [[] for _ in range(len(self.schema))]
            self._columns = columns
        return columns

    def column(self, index: int) -> list[Any]:
        """One column's values, in row order."""
        return self.columns[index]

    def rows(self) -> list[Row]:
        """Row objects, materializing from columns on first access."""
        rows = self._rows
        if rows is None:
            schema = self.schema
            make = Row.make  # repro: allow[hot-path-row] declared tuple-path boundary
            columns = self._columns
            if columns:
                rows = [
                    make(schema, values, arrival)
                    for values, arrival in zip(zip(*columns), self.arrivals)
                ]
            else:
                rows = [make(schema, (), arrival) for arrival in self.arrivals]
            self._rows = rows
        return rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())  # repro: allow[hot-path-row] tuple-drive compatibility

    def __getitem__(self, index: int) -> Row:
        if self._rows is not None:
            return self._rows[index]
        values = tuple(column[index] for column in self._columns)
        # repro: allow[hot-path-row] single-row accessor is a declared boundary
        return Row.make(self.schema, values, self.arrivals[index])

    # -- vectorized derivation --------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Batch":
        """New batch holding the rows at ``indices`` (one gather per column)."""
        if self._columns is not None:
            pick = picker(indices)
            columns = [gather_column(column, indices, pick) for column in self._columns]
            return Batch.from_columns(
                self.schema, columns, gather_arrivals(self.arrivals, indices, pick)
            )
        rows = self._rows
        return Batch.from_rows(self.schema, [rows[i] for i in indices])

    def slice(self, start: int, stop: int) -> "Batch":
        """Contiguous sub-batch ``[start:stop)`` (slice copies per column)."""
        if self._columns is not None:
            columns = [column[start:stop] for column in self._columns]
            return Batch.from_columns(self.schema, columns, self.arrivals[start:stop])
        return Batch.from_rows(self.schema, self._rows[start:stop])

    def select_columns(self, indices: Sequence[int], schema: Schema) -> "Batch":
        """Projection onto ``indices``: pure column-list reuse, no value copies."""
        columns = self.columns
        return Batch.from_columns(
            schema, [columns[i] for i in indices], self.arrivals
        )

    def with_schema(self, schema: Schema) -> "Batch":
        """Re-stamp onto ``schema`` (same arity); columns are aliased, not copied."""
        if self._columns is not None:
            return Batch.from_columns(schema, self._columns, self.arrivals)
        make = Row.make  # repro: allow[hot-path-row] row-backed re-stamp keeps rows rows
        return Batch.from_rows(
            schema, [make(schema, row.values, row.arrival) for row in self._rows]
        )

    def key_tuples(self, indices: Sequence[int]) -> list[Key]:
        """One :data:`~repro.storage.tuples.Key` per row, from column slices.

        The name is kept for the benchmark, which calls it: keys are no longer
        1-tuples, so one key column gives *its values as a plain list* (the
        column itself, read-only, unless it is dict-encoded: that one decodes
        once at C level) and only a composite key tuples: what the tables
        index by and ``bucket_of`` takes.
        """
        if self._columns is None:
            return list(map(itemgetter(*indices), [row.values for row in self._rows]))
        if len(indices) > 1:
            return list(zip(*(self._columns[i] for i in indices)))
        column = self._columns[indices[0]]
        return column if type(column) is list else list(column)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "columnar" if self._columns is not None else "rows"
        return f"Batch({len(self)} rows, {kind}, {self.schema.names})"


def gather_join(
    left: Batch,
    take: Sequence[int],
    right_rows: Sequence[Row],
    schema: Schema,
    aligned: bool = False,
) -> Batch:
    """Join-output batch: left rows at ``take`` concatenated with ``right_rows``.

    ``take[i]`` names the left row matched by ``right_rows[i]`` (indices repeat
    when a left row has several matches).  Left values are gathered column by
    column; right values are transposed from the matched rows; each output
    arrival is the later of the two input stamps — exactly what
    :meth:`Row.concat` produces tuple-at-a-time.

    ``aligned=True`` asserts that ``take`` is the identity permutation (every
    left row matched exactly once, the common case for foreign-key joins);
    the left columns are then aliased outright instead of gathered.
    """
    if aligned:
        columns = list(left.columns)
        columns.extend(transpose_rows(right_rows))
        left_arrivals = left.arrivals
        arrivals = [
            a if a >= (b := row.arrival) else b
            for a, row in zip(left_arrivals, right_rows)
        ]
        return Batch.from_columns(schema, columns, arrivals)
    columns = [[column[i] for i in take] for column in left.columns]
    columns.extend(transpose_rows(right_rows))
    left_arrivals = left.arrivals
    arrivals = []
    append = arrivals.append
    for index, row in zip(take, right_rows):
        a = left_arrivals[index]
        b = row.arrival
        append(a if a >= b else b)
    return Batch.from_columns(schema, columns, arrivals)


def gather_join_columns(
    left: Batch,
    take: Sequence[int],
    right_columns: Sequence[Sequence[Any]],
    right_arrivals: Sequence[float],
    schema: Schema,
    aligned: bool = False,
) -> Batch:
    """Join-output batch from already-gathered *columnar* right-side matches.

    The columnar twin of :func:`gather_join`: the matched build/probe values
    arrive as column lists (gathered straight out of a hash table's arena
    or spill chunks) instead of as :class:`Row` objects, so assembling the
    output is pure per-column work — no row boxing anywhere.  ``take[i]``
    names the left row matched by right position ``i``; ``aligned=True``
    asserts ``take`` is the identity permutation, letting the left columns
    alias instead of gather.
    """
    if aligned:
        columns = list(left.columns)
        left_arrivals = left.arrivals
    else:
        pick = picker(take)
        columns = [gather_column(column, take, pick) for column in left.columns]
        left_arrivals = pick(as_values(left.arrivals))
    columns.extend(right_columns)
    return Batch.from_columns(schema, columns, later_stamps(left_arrivals, right_arrivals))


class BatchCursor:
    """Pending-output helper: serves a batch in caller-sized pieces.

    Join operators produce one output batch per probed input batch, which may
    exceed the consumer's requested ``max_rows``; a cursor hands out slices
    (or single rows, for tuple-at-a-time callers) until the batch is drained.
    """

    __slots__ = ("batch", "position")

    def __init__(self, batch: Batch) -> None:
        self.batch = batch
        self.position = 0

    def __bool__(self) -> bool:
        return self.position < len(self.batch)

    def __len__(self) -> int:
        return len(self.batch) - self.position

    def take(self, max_rows: int) -> Batch:
        """Up to ``max_rows`` rows as a batch (empty when drained)."""
        position = self.position
        stop = min(position + max_rows, len(self.batch))
        if stop <= position:
            return Batch.empty(self.batch.schema)
        self.position = stop
        if position == 0 and stop == len(self.batch):
            return self.batch
        return self.batch.slice(position, stop)

    def next_row(self) -> Row | None:
        """One row at a time (for tuple-at-a-time consumers); ``None`` when drained."""
        if self.position >= len(self.batch):
            return None
        row = self.batch[self.position]
        self.position += 1
        return row
