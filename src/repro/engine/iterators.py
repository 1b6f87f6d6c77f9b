"""The iterator model: the runtime operator base class.

Tukwila executes operator trees top-down with the standard iterator (open /
next / close) protocol.  Operators additionally expose :meth:`peek_arrival` —
an estimate of the earliest virtual time at which their next tuple could be
delivered — which is what lets data-driven operators (the double pipelined
join, the dynamic collector) decide which input to service first, standing in
for the original engine's per-child threads.
"""

from __future__ import annotations

import weakref
from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.schema import Schema
from repro.storage.tuples import Row

#: Default number of rows per batch in the vectorized (batch-at-a-time) path.
DEFAULT_BATCH_SIZE = 256


class Operator:
    """Base class for all runtime operators.

    Subclasses implement :meth:`_do_open`, :meth:`_next` and optionally
    :meth:`_do_close` and :meth:`peek_arrival`.  The base class maintains
    state, statistics, and event emission.
    """

    #: Multiplier on the per-tuple CPU charge for this operator's output.
    #: 1.0 for operators that touch every value; exchange endpoints lower it
    #: (routing and merging move encoded column references, not values) so a
    #: serial merge point does not re-pay the work its lanes parallelized.
    PER_TUPLE_CPU_FACTOR = 1.0

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        children: list["Operator"] | None = None,
        estimated_cardinality: int | None = None,
    ) -> None:
        self.operator_id = operator_id
        self.context = context
        self.children = children or []
        self.estimated_cardinality = estimated_cardinality
        self.state = "pending"
        context.register_operator(self)

    # -- schema --------------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        """Schema of the rows this operator produces."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------------

    def open(self) -> None:
        """Open children then this operator; emits the ``opened`` event."""
        if self.state == "open":
            return
        for child in self.children:
            child.open()
        self._do_open()
        self.state = "open"
        self._stats.state = "open"
        self.context.emit_event(EventType.OPENED, self.operator_id)

    def next(self) -> Row | None:
        """Produce the next output row, or ``None`` at end of stream."""
        if self.state == "pending":
            raise ExecutionError(f"operator {self.operator_id!r} used before open()")
        if self.state in ("closed", "deactivated"):
            return None
        row = self._next()
        if row is not None:
            self.context.clock.consume_cpu(
                self.context.config.per_tuple_cpu_ms * self.PER_TUPLE_CPU_FACTOR
            )
            self._stats.record_output(self.context.clock.now)
        return row

    def next_batch(self, max_rows: int = DEFAULT_BATCH_SIZE) -> Batch:
        """Produce up to ``max_rows`` output rows as a :class:`Batch`.

        The batch contract:

        * A non-empty batch may hold fewer than ``max_rows`` rows (operators
          cut batches short when a watched event fires, so the executor can
          run rules at exactly the tuple-at-a-time firing point).
        * An empty (falsy) batch is only returned at end of stream —
          operators keep pulling until they have at least one row or their
          input is done, mirroring :meth:`next`, which blocks until a row or
          ``None``.
        * The batch may be column-backed (native columnar paths) or
          row-backed (tuple-driven operators, the generic fallback); either
          converts to the other lazily, so consumers dispatch on
          :attr:`Batch.is_columnar` when they have a vectorized path and
          call :meth:`Batch.rows` otherwise.

        The default implementation loops :meth:`_next`; hot operators override
        :meth:`_next_batch` with native vectorized paths.  Per-tuple CPU and
        statistics are charged once per batch with identical totals.
        """
        if self.state == "pending":
            raise ExecutionError(f"operator {self.operator_id!r} used before open()")
        if self.state in ("closed", "deactivated"):
            return Batch.empty(self.output_schema)
        if max_rows <= 0:
            raise ExecutionError(f"batch size must be positive, got {max_rows}")
        clock = self.context.clock
        wait_before = clock.stats.wait_ms
        batch = self._next_batch(max_rows)
        if batch:
            # Charge the batch's per-tuple CPU as overlapped with the waiting
            # that accrued while the batch streamed in — the accounting a
            # tuple-at-a-time drive produces by interleaving the same charges
            # between arrival waits.
            clock.consume_cpu_overlapped(
                len(batch) * self.context.config.per_tuple_cpu_ms * self.PER_TUPLE_CPU_FACTOR,
                max(0.0, clock.stats.wait_ms - wait_before),
            )
            self._stats.record_output_batch(len(batch), clock.now)
        return batch

    def next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        """Produce up to ``max_rows`` rows arriving strictly before ``arrival_bound``.

        Used by data-driven consumers (the double pipelined join) to consume a
        *run* of tuples from one input in bulk: every row returned would also
        have been consumed consecutively by a tuple-at-a-time drive, because
        no other input could deliver anything earlier.  May return an empty
        :class:`Batch` when the next row arrives at or after the bound — that
        is not end of stream; callers fall back to a single :meth:`next` step
        (the tie-break case).
        """
        if self.state == "pending":
            raise ExecutionError(f"operator {self.operator_id!r} used before open()")
        if self.state in ("closed", "deactivated"):
            return Batch.empty(self.output_schema)
        clock = self.context.clock
        wait_before = clock.stats.wait_ms
        batch = self._next_batch_bounded(max_rows, arrival_bound)
        if batch:
            clock.consume_cpu_overlapped(
                len(batch) * self.context.config.per_tuple_cpu_ms * self.PER_TUPLE_CPU_FACTOR,
                max(0.0, clock.stats.wait_ms - wait_before),
            )
            self._stats.record_output_batch(len(batch), clock.now)
        return batch

    def close(self) -> None:
        """Close this operator and its children; emits the ``closed`` event."""
        if self.state == "closed":
            return
        self._do_close()
        for child in self.children:
            child.close()
        self.state = "closed"
        self._stats.state = "closed"
        self.context.emit_event(
            EventType.CLOSED, self.operator_id, value=self._stats.tuples_produced
        )
        # A closed operator keeps its context for introspection only, and
        # weakly: the context owns the operator registry and the query's
        # results, and a strong back-reference would park every finished
        # query in a reference cycle until the next full collection.
        self.context = weakref.proxy(self.context)

    def deactivate(self) -> None:
        """Stop execution of this operator (the ``deactivate`` rule action)."""
        self.state = "deactivated"
        self._stats.state = "deactivated"
        self.context.deactivate(self.operator_id)
        for child in self.children:
            child.deactivate()

    # -- data-driven support -------------------------------------------------------------

    def peek_arrival(self) -> float | None:
        """Earliest virtual time the next tuple could be available.

        ``None`` means end of stream.  The default assumes data is ready now,
        which is correct for operators over already-materialized inputs.
        """
        if self.state in ("closed", "deactivated"):
            return None
        return self.context.clock.now

    # -- helpers ---------------------------------------------------------------------------

    @property
    def _stats(self):
        return self.context.stats.operator(self.operator_id)

    @property
    def tuples_produced(self) -> int:
        return self._stats.tuples_produced

    def iterate(self) -> Iterator[Row]:
        """Convenience generator over the operator's full output."""
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    # -- subclass hooks ----------------------------------------------------------------------

    def _do_open(self) -> None:
        """Subclass hook: acquire resources."""

    def _next(self) -> Row | None:
        raise NotImplementedError

    def _next_batch(self, max_rows: int) -> Batch:
        """Subclass hook: produce up to ``max_rows`` rows (empty = end of stream).

        The fallback loops the tuple-at-a-time hook into a row-backed
        :class:`Batch`, stopping early when a watched event interrupts the
        batch (but never returning an empty batch unless the stream is
        exhausted).
        """
        context = self.context
        rows: list[Row] = []
        while len(rows) < max_rows:
            row = self._next()
            if row is None:
                break
            rows.append(row)
            if context.batch_interrupt:
                break
        return Batch.from_rows(rows[0].schema if rows else self.output_schema, rows)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        """Subclass hook for :meth:`next_batch_bounded`.

        The fallback re-checks :meth:`peek_arrival` before every pull, so it
        is exact for any operator; leaf scans override it with a direct loop
        over their source's arrival sequence.
        """
        context = self.context
        rows: list[Row] = []
        while len(rows) < max_rows:
            arrival = self.peek_arrival()
            if arrival is None or arrival >= arrival_bound:
                break
            row = self._next()
            if row is None:
                break
            rows.append(row)
            if context.batch_interrupt:
                break
        return Batch.from_rows(rows[0].schema if rows else self.output_schema, rows)

    def _do_close(self) -> None:
        """Subclass hook: release resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.operator_id!r}, state={self.state!r})"
