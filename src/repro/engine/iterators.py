"""The iterator model: the runtime operator base class.

Tukwila executes operator trees top-down with the iterator (open / next /
close) protocol, here batch at a time: every operator implements one pull,
:meth:`Operator._next_batch`, which serves :meth:`Operator.next_batch`,
its arrival-bounded form :meth:`Operator.next_batch_bounded`, and the
one-row step :meth:`Operator.next_one` — a single exact step, not a second
drive.  The base class is also the one place an operator's ``threshold``
event is raised: a pull ends its batch at the tuple count where a rule on
that event can fire and reports the count there, so no operator keeps a
per-row path for events.  Operators additionally expose
:meth:`peek_arrival` — an estimate of the earliest virtual time at which
their next tuple could be delivered — which is what lets data-driven
operators (the double pipelined join, the dynamic collector) decide which
input to service first, standing in for the original engine's per-child
threads.
"""

from __future__ import annotations

import weakref

from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.schema import Schema

#: Default number of rows per batch in the vectorized (batch-at-a-time) path.
#: Time to first tuple does not depend on it (the executor ramps 1 -> 4 ->
#: 16 -> ... up to it), so above the ramp it trades per-batch overhead
#: (Python calls, scan blocks, generation-0 collections) against batch
#: memory.  Against 256 rows, 1024 cuts ``fig3a_hybrid``'s scan batches
#: 125 -> 38 and its generation-0 collections 5 -> 2 per op, and its real
#: cost to 0.82x, with every row, victim and spilled byte the same.
DEFAULT_BATCH_SIZE = 1024


class Operator:
    """Base class for all runtime operators.

    Subclasses implement :meth:`_next_batch` (their one pull) and
    optionally :meth:`_do_open`, :meth:`_do_close` and :meth:`peek_arrival`.
    The base class maintains state, statistics, and event emission, and
    adapts the pull to the public :meth:`next_batch`,
    :meth:`next_batch_bounded` and :meth:`next_one`.
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

    def next_one(self) -> Batch:
        """One exact step: a one-row batch, or an empty one at end of stream.

        Takes a one-row batch from :meth:`_next_batch` and charges it as one
        row — the per-row CPU charge, not overlapped with waits, and one
        output record.  It is not a drive mode: the batch drive takes single
        exact steps through it (a data-driven consumer's tie step), and the
        batch comes back in the form the operator made it, so strings a
        source coded stay codes across the step.
        """
        return self._charged(1, None, overlapped=False)

    def next_batch(self, max_rows: int = DEFAULT_BATCH_SIZE) -> Batch:
        """Produce up to ``max_rows`` output rows as a :class:`Batch`.

        The batch contract:

        * A non-empty batch may hold fewer than ``max_rows`` rows: a batch
          ends at the tuple count where a rule on this operator's
          ``threshold`` event can fire, and operators cut batches short when
          a watched event fires below them, so the executor runs rules at
          exactly the tuple that raised the event.
        * An empty (falsy) batch is only returned at end of stream —
          operators keep pulling until they have at least one row or their
          input is done.
        * The batch is columns; a per-row producer (follower and publishing
          scans) builds it with :meth:`Batch.from_rows`, so consumers never
          branch on how it was made.

        Per-tuple CPU and statistics are charged once per batch.
        """
        if max_rows <= 0:
            raise ExecutionError(f"batch size must be positive, got {max_rows}")
        return self._charged(max_rows, None)

    def next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        """Produce up to ``max_rows`` rows arriving strictly before ``arrival_bound``.

        Used by data-driven consumers (the double pipelined join, the
        dynamic collector) to consume a *run* of tuples from one input in
        bulk: no other input could deliver anything earlier.  May return an
        empty :class:`Batch` when the next row arrives at or after the bound
        — that is not end of stream; callers then take a single exact
        :meth:`next_one` step (the tie-break case).
        """
        return self._charged(max_rows, arrival_bound)

    def _charged(
        self, max_rows: int, arrival_bound: float | None, overlapped: bool = True
    ) -> Batch:
        """One pull of the hook, its per-tuple CPU and output statistics charged.

        The one ``threshold`` emitter: when a rule watches this operator's
        count, the batch ends at the count in ``context.thresholds`` and the
        event is raised there, once, before the batch's CPU is charged.
        """
        if self.state == "pending":
            raise ExecutionError(f"operator {self.operator_id!r} used before open()")
        if self.state in ("closed", "deactivated"):
            return Batch.empty(self.output_schema)
        context = self.context
        trigger = None
        if context.thresholds:
            trigger = context.thresholds.get(self.operator_id)
            if trigger is not None:
                # While a watched event waits for the executor, one row a
                # pull: a consumer can then stop at the row the rules see.
                room = 1 if context.batch_interrupt else trigger - self._stats.tuples_produced
                max_rows = max(1, min(max_rows, room))
        clock = context.clock
        wait_before = clock.stats.wait_ms
        if arrival_bound is None:
            # Unbounded pulls pass ``max_rows`` alone, so a hook that never
            # serves bounded callers may take just that.
            batch = self._next_batch(max_rows)
        else:
            batch = self._next_batch(max_rows, arrival_bound)
        if batch:
            if trigger is not None:
                self._report_threshold(len(batch), trigger)
            cpu = len(batch) * context.config.per_tuple_cpu_ms * self.PER_TUPLE_CPU_FACTOR
            if overlapped:
                # Charge the batch's per-tuple CPU as overlapped with the
                # waiting that accrued while the batch streamed in — the
                # accounting a row-at-a-time interleave of the same charges
                # between arrival waits produces.
                clock.consume_cpu_overlapped(cpu, max(0.0, clock.stats.wait_ms - wait_before))
            else:
                clock.consume_cpu(cpu)
            self._stats.record_output_batch(len(batch), clock.now)
        return batch

    def _report_threshold(self, rows: int, trigger: int) -> None:
        """Raise ``threshold(operator, count)`` if ``rows`` more reach ``trigger``."""
        produced = self._stats.tuples_produced + rows
        if produced >= trigger:
            self.context.emit_event(EventType.THRESHOLD, self.operator_id, value=produced)
            # Rules are evaluated only when the executor drains the queue;
            # until it derives the next trigger, report every row.
            self.context.thresholds[self.operator_id] = produced + 1

    def close(self) -> None:
        """Close this operator and its children; emits the ``closed`` event.

        Whatever :meth:`_do_close` does, the pool grant named by this
        operator's id goes back and every child is closed: a tree's leases
        return on every path, and the first error is raised after.
        """
        if self.state == "closed":
            return
        try:
            self._do_close()
        finally:
            try:
                self.context.memory_pool.revoke(self.operator_id)
            finally:
                close_all(self.children)
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

    # -- subclass hooks ----------------------------------------------------------------------

    def _do_open(self) -> None:
        """Subclass hook: acquire resources."""

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        """Subclass hook, the operator's one pull: up to ``max_rows`` rows.

        Empty means end of stream — or, with an ``arrival_bound``, that the
        next row would arrive at or after the bound (see
        :meth:`next_batch_bounded`).
        """
        raise NotImplementedError

    def _do_close(self) -> None:
        """Subclass hook: release resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.operator_id!r}, state={self.state!r})"


def close_all(operators) -> None:
    """Close every operator in ``operators``, then raise the first error."""
    error: Exception | None = None
    for operator in operators:
        try:
            operator.close()
        except Exception as exc:  # keep closing the others
            if error is None:
                error = exc
    if error is not None:
        raise error


def wait_hint(root: Operator, clock) -> float | None:
    """Arrival time ``root``'s next pull will block for; ``None`` if ready.

    The one "is this pull going to block?" probe, shared by the executor's
    fragment steps and the exchange's lane steps so both yield identical
    wait events to their schedulers.  Side-effect free (pure
    ``peek_arrival``); an infinite arrival (dead source) is not a schedulable
    event — the pull itself surfaces the timeout.
    """
    arrival = root.peek_arrival()
    if arrival is None:
        return None
    if arrival > clock.now and arrival != float("inf"):
        return arrival
    return None
