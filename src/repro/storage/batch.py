"""Columnar batches: the struct-of-arrays unit of vectorized execution.

A :class:`Batch` carries up to a few hundred tuples as one column per
attribute (a plain list of the source's own objects, or a dictionary-encoded
:class:`~repro.storage.columns.DictColumn`) plus a parallel column of arrival
stamps, all sharing one :class:`~repro.storage.schema.Schema`.  Keeping values
in columns lets operators work on whole batches with C-speed primitives —
``zip`` transposes, ``itemgetter`` gathers, slice copies, all of them pointer
moves — instead of creating one boxed :class:`~repro.storage.tuples.Row`
object per tuple.

Batches have one storage form: columns.  The one path that is inherently
tuple-driven (a scan following or publishing a speculative extent) builds rows
and hands them to :meth:`Batch.from_rows`, which transposes them once; a
one-row tie step hands over its child's batch as it is.  Every consumer reads
columns.  Rows are boxed on demand (``rows()``, iteration, ``[i]``) and never
cached.

Batches are immutable by contract: once a column list is handed to
``from_columns`` (or obtained from ``.columns``) it must not be mutated —
``select_columns`` and schema re-stamping alias column lists rather than
copying them.

Probe joins hand their output out through one :class:`MatchCursor`: the key
pass yields match positions only, and the cursor gathers each output row from
the probe batch and the build-side store when it hands the row out, in
caller-sized pieces — its docstring states the output stamp rule.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage.columns import (
    RunLengthArrivals,
    as_run,
    as_values,
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

    __slots__ = ("schema", "arrivals", "columns")

    def __init__(self, schema: Schema, columns: list[list[Any]], arrivals: list[float]) -> None:
        self.schema = schema
        self.columns = columns
        self.arrivals = arrivals

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Row]) -> "Batch":
        """Batch over ``rows``' values and arrival stamps, transposed once."""
        columns = transpose_rows(rows) if rows else [[] for _ in range(len(schema))]
        return cls(schema, columns, [row.arrival for row in rows])

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: list[list[Any]], arrivals: list[float]
    ) -> "Batch":
        """Batch over ``columns`` (one list per attribute)."""
        return cls(schema, columns, arrivals)

    @classmethod
    def empty(cls, schema: Schema) -> "Batch":
        """The end-of-stream sentinel: zero rows (falsy)."""
        return cls(schema, [[] for _ in range(len(schema))], [])

    @classmethod
    def concat(cls, schema: Schema, parts: Sequence["Batch"]) -> "Batch":
        """Concatenation of ``parts`` in order."""
        if not parts:
            return cls.empty(schema)
        if len(parts) == 1:
            return parts[0]
        # Accumulators clone the first non-empty part's storage classes so
        # dict-encoded columns stay encoded through concatenation; a value
        # that does not fit degrades that column to a list.
        first = next((p for p in parts if p.arrivals), parts[0])
        columns: list[list[Any]] = [empty_like(c) for c in first.columns]
        # Arrival accumulators keep run-length encoding when the first
        # non-empty part carries it (encoded-mode scan blocks).
        arrivals = (
            RunLengthArrivals() if isinstance(first.arrivals, RunLengthArrivals) else []
        )
        for part in parts:
            for position, column in enumerate(part.columns):
                extend_column(columns, position, column)
            arrivals.extend(part.arrivals)
        return cls(schema, columns, arrivals)

    # -- sizing / truthiness ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.arrivals)

    def __bool__(self) -> bool:
        return bool(self.arrivals)

    # -- rows, boxed on demand (the one-row adapter and tests) -------------------

    def rows(self) -> list[Row]:
        """Row objects, boxed afresh on every call (nothing is cached)."""
        schema = self.schema
        make = Row.make
        if self.columns:
            return [
                make(schema, values, arrival)
                for values, arrival in zip(zip(*self.columns), self.arrivals)
            ]
        return [make(schema, (), arrival) for arrival in self.arrivals]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __getitem__(self, index: int) -> Row:
        values = tuple(column[index] for column in self.columns)
        return Row.make(self.schema, values, self.arrivals[index])

    # -- vectorized derivation --------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Batch":
        """New batch holding the rows at ``indices`` (one gather per column)."""
        pick = picker(indices)
        columns = [gather_column(column, indices, pick) for column in self.columns]
        return Batch(self.schema, columns, gather_arrivals(self.arrivals, indices, pick))

    def slice(self, start: int, stop: int) -> "Batch":
        """Contiguous sub-batch ``[start:stop)`` (slice copies per column)."""
        columns = [column[start:stop] for column in self.columns]
        return Batch(self.schema, columns, self.arrivals[start:stop])

    def select_columns(self, indices: Sequence[int], schema: Schema) -> "Batch":
        """Projection onto ``indices``: pure column-list reuse, no value copies."""
        columns = self.columns
        return Batch(schema, [columns[i] for i in indices], self.arrivals)

    def with_schema(self, schema: Schema) -> "Batch":
        """Re-stamp onto ``schema`` (same arity); columns are aliased, not copied."""
        return Batch(schema, self.columns, self.arrivals)

    def key_tuples(self, indices: Sequence[int]) -> list[Key]:
        """One :data:`~repro.storage.tuples.Key` per row, from column slices.

        The name is kept for the benchmark, which calls it: keys are no longer
        1-tuples, so one key column gives *its values as a plain list* (the
        column itself, read-only, unless it is dict-encoded: that one decodes
        once at C level) and only a composite key tuples: what the tables
        index by and ``bucket_of`` takes.
        """
        if len(indices) > 1:
            return list(zip(*(self.columns[i] for i in indices)))
        column = self.columns[indices[0]]
        return column if type(column) is list else list(column)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({len(self)} rows, {self.schema.names})"


class MatchCursor:
    """Pending join output, gathered a piece at a time as it is handed out.

    Output row ``i`` is ``left``'s row ``take[i]`` beside ``right``'s row
    ``at[i]`` (``left`` the probe batch, ``right`` the build-side store:
    anything with ``columns`` and ``arrivals``).  :meth:`take` gathers exactly
    the next ``n`` rows, each cell copied once: a whole ``aligned`` probe
    batch (``take`` the identity) aliases its columns, a contiguous run of
    either side slices, anything else is one :func:`picker` per side.

    The stamp rule, stated once: a row carries the later of its two input
    stamps, ties keeping the left one (:func:`later_stamps`).  When ``bound``,
    an upper bound on ``right``'s stamps (a finished build's latest), is at
    most the probe batch's earliest stamp, that is every row's left stamp,
    taken without comparing.  ``right`` must not change while rows are
    pending; :meth:`settle` gathers them first.
    """

    __slots__ = ("schema", "left", "left_at", "right", "right_at", "position", "stamps", "left_wins")

    def __init__(
        self, schema: Schema, left: Batch, take: Sequence[int], right, at: Sequence[int],
        aligned: bool = False, bound: float | None = None,
    ) -> None:
        self.schema, self.left, self.right, self.right_at = schema, left, right, at
        self.left_at = range(len(take)) if aligned else take
        self.position = 0
        self.stamps = as_values(left.arrivals)
        self.left_wins = bound is not None and bound <= min(self.stamps)

    def __len__(self) -> int:
        return len(self.right_at) - self.position

    def take(self, n: int) -> Batch:
        """The next ``n`` output rows (fewer at the end) as a batch."""
        start, left_at, right_at = self.position, self.left_at, self.right_at
        stop = self.position = min(start + n, len(right_at))
        if start or stop < len(right_at):
            left_at, right_at = left_at[start:stop], right_at[start:stop]
        right_at, stamps = as_run(right_at), self.stamps
        if type(left_at) is range and len(left_at) == len(stamps):
            columns = list(self.left.columns)
        else:
            left_at = as_run(left_at)
            pick = picker(left_at)
            columns = [gather_column(column, left_at, pick) for column in self.left.columns]
            stamps = pick(stamps)
        pick = picker(right_at)
        columns += [gather_column(column, right_at, pick) for column in self.right.columns]
        if not self.left_wins:
            stamps = later_stamps(stamps, pick(self.right.arrivals))
        return Batch(self.schema, columns, stamps if type(stamps) is list else list(stamps))

    def settle(self) -> None:
        """Gather the pending rows' ``right`` side now, before ``right`` changes."""
        at, right = self.right_at[self.position :], self.right
        pick = picker(at)
        columns = [gather_column(column, at, pick) for column in right.columns]
        self.right = Batch(right.schema, columns, list(pick(right.arrivals)))
        self.left_at, self.right_at = self.left_at[self.position :], range(len(at))
        self.position = 0
