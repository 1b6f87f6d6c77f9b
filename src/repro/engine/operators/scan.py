"""Leaf operators: wrapper scans (remote sources) and table scans (local store)."""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import SourceTimeoutError, SourceUnavailableError
from repro.network.cache import NEED_TAIL, STARVED
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.columns import RunLengthArrivals, extend_column
from repro.storage.schema import Schema
from repro.storage.tuples import Row


class WrapperScan(Operator):
    """Streams tuples from a remote data source through its wrapper.

    Timeouts and source failures are surfaced both as engine events (so rules
    can reschedule or re-optimize) and as exceptions (so the executor can stop
    the fragment when no rule handles the situation).

    When the execution context carries a :class:`~repro.network.cache.SourceCache`,
    a source that was already read to completion is served from the cache at
    local speed, and a source read to completion here is deposited into the
    cache for later scans (the paper's source-data caching extension).
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        source_name: str,
        timeout_ms: float | None = None,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(operator_id, context, estimated_cardinality=estimated_cardinality)
        self.source_name = source_name
        self.wrapper = context.create_wrapper(source_name, timeout_ms=timeout_ms)
        self._cache_feed = None
        self._deferred_error: Exception | None = None
        self.served_from_cache = False
        #: Speculative streaming state: the partial extent this scan is
        #: publishing (it is the source's first reader), the follower feed it
        #: is consuming (another reader published/is publishing), and whether
        #: it ended up streaming a private tail that must never be deposited
        #: as a complete extent.
        self._extent = None
        self._follower = None
        self._tail_only = False

    @property
    def output_schema(self) -> Schema:
        return self.wrapper.schema

    def _do_open(self) -> None:
        context = self.context
        cache = context.source_cache
        if cache is not None:
            entry = cache.lookup(
                self.source_name, context.clock.now, session=context.session_id
            )
            if entry is not None:
                from repro.network.cache import CachingScanFeed

                self._cache_feed = CachingScanFeed(entry, context.clock)
                self.served_from_cache = True
                return
            if context.config.speculative_sources:
                follower = cache.attach_follower(
                    self.source_name, context.clock, context.session_id
                )
                if follower is not None:
                    self._follower = follower
                    return
        if not self.wrapper.is_open:
            self.wrapper.open()
        if cache is not None and context.config.speculative_sources:
            self._extent = cache.begin_stream(
                self.source_name,
                self.output_schema,
                context.clock.now,
                context.session_id,
                context.clock,
                self.wrapper.peek_next_arrival,
            )

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._cache_feed is not None:
            return self._cache_feed.next_arrival()
        if self._follower is not None:
            return self._follower.next_arrival()
        if not self.wrapper.is_open:
            return self.context.clock.now
        if self.wrapper.exhausted:
            return None
        return self.wrapper.next_arrival()

    def _fill_cache_if_complete(self) -> None:
        cache = self.context.source_cache
        if cache is None or self.served_from_cache:
            return
        if self._follower is not None or self._tail_only:
            return
        if self._extent is not None:
            if self.wrapper.exhausted and not self._extent.complete:
                cache.complete_stream(
                    self._extent,
                    self.wrapper.source,
                    self.context.clock.now,
                    self.context.session_id,
                )
            return
        if self.wrapper.exhausted and self.source_name not in cache:
            # Streamed from row zero to the end: deposit "all of the source"
            # as a view of its export — nothing was collected en route.
            cache.fill(
                self.wrapper.source,
                now_ms=self.context.clock.now,
                session=self.context.session_id,
            )

    def _begin_tail(self) -> None:
        """Open a real connection for the unread tail of a followed extent.

        Called when the follower drained the prefix of a detached extent, or
        starved on a live one with nothing buffered to deliver (rare — the
        follower's wait hint lands strictly after the publisher's next
        event).  If the extent is detached and still registered, this scan
        takes over publishing it; otherwise the tail stays private.
        """
        follower = self._follower
        self._follower = None
        extent = follower.extent
        self.wrapper.open(start_row=follower.cursor)
        cache = self.context.source_cache
        if (
            cache is not None
            and not extent.complete
            and cache.adopt_stream(
                extent,
                self.context.session_id,
                self.context.clock,
                self.wrapper.peek_next_arrival,
            )
        ):
            self._extent = extent
        else:
            self._tail_only = True

    def _pull_row(self, starve_ok: bool = False):
        """One tuple, boxed, from the followed or the live stream.

        Dispatches across a follower feed (handling tail takeover
        transparently) and the live wrapper (publishing the fetched row when
        this scan is the extent's publisher).  With ``starve_ok`` a
        live-but-starved follower returns :data:`STARVED` instead of
        defecting, so the batch loop can deliver what it already has.
        """
        if self._follower is not None:
            row = self._follower.fetch()
            if row is STARVED and starve_ok:
                return STARVED
            if row is not NEED_TAIL and row is not STARVED:
                return row
            self._begin_tail()
        span = self.wrapper.fetch()
        if span is None:
            return None
        row = Batch(self.output_schema, *span)[0]
        if self._extent is not None:
            self._extent.publish((row,), self.context.clock.now, self.context.session_id)
        return row

    def _stream_next_arrival(self) -> float | None:
        """Next-tuple arrival for the live or followed stream (effect-free)."""
        if self._follower is not None:
            return self._follower.next_arrival()
        return self.wrapper.next_arrival()

    def _emit_failure(self, exc: SourceUnavailableError) -> None:
        """Surface a source failure as engine events (for source and operator)."""
        kind = EventType.TIMEOUT if isinstance(exc, SourceTimeoutError) else EventType.ERROR
        value = None if kind is EventType.TIMEOUT else str(exc)
        self.context.emit_event(kind, self.source_name, value=value)
        self.context.emit_event(kind, self.operator_id, value=value)

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        """Vectorized fetch loop, optionally stopping at an arrival bound.

        A source failure that strikes mid-batch is deferred so the rows
        fetched before it are not lost: the partial batch is delivered and
        the error re-raised on the next call, which is when the row after
        the last delivered one would have hit it.

        The live wrapper and the cache feed deliver column spans of the
        source's export (:meth:`_fetch_columnar`, no :class:`Row` objects);
        only the speculative follower and publisher paths stay row-based,
        since they consume or publish row objects anyway.
        """
        if self._deferred_error is not None:
            error, self._deferred_error = self._deferred_error, None
            raise error
        context = self.context
        if context.is_deactivated(self.operator_id):
            return Batch.empty(self.output_schema)
        if self._follower is None and self._extent is None:
            return self._fetch_columnar(max_rows, arrival_bound)
        batch: list[Row] = []
        use_block = self._follower is None
        while len(batch) < max_rows:
            if use_block:
                rows = self.wrapper.fetch_batch(max_rows - len(batch), arrival_bound)
                if rows:
                    if self._extent is not None:
                        self._extent.publish(rows, context.clock.now, context.session_id)
                    batch.extend(rows)
                    continue
                # Empty block: end of stream, bound reached, or a tuple that
                # would fail/time out — fall through to the per-tuple path,
                # which surfaces each of those with exact semantics.
            if arrival_bound is not None:
                arrival = self._stream_next_arrival()
                if arrival is None or arrival >= arrival_bound:
                    break
            try:
                row = self._pull_row(starve_ok=True)
                if row is STARVED:
                    # Live extent, nothing published yet: deliver the partial
                    # batch; with nothing buffered, defect to a private tail.
                    if batch:
                        break
                    row = self._pull_row()
            except SourceUnavailableError as exc:
                self._emit_failure(exc)
                if batch:
                    self._deferred_error = exc
                    break
                raise
            if row is None:
                self._fill_cache_if_complete()
                break
            batch.append(row)
        return Batch.from_rows(self.output_schema, batch)

    def _fetch_columnar(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Column spans from the live wrapper or, served from the cache, the
        cache feed (the same ``fetch_columns``/``next_arrival``/``fetch``
        shape): blocks while they flow, and one per-tuple step where a block
        comes back empty — end of stream, the bound, or a tuple that would
        fail or time out, each surfaced with exact semantics."""
        feed = self._cache_feed if self._cache_feed is not None else self.wrapper
        columns: list[list] | None = None
        arrivals: list[float] = []
        while len(arrivals) < max_rows:
            span = feed.fetch_columns(max_rows - len(arrivals), arrival_bound)
            if span is None:
                if arrival_bound is not None:
                    arrival = feed.next_arrival()
                    if arrival is None or arrival >= arrival_bound:
                        break
                try:
                    span = feed.fetch()
                except SourceUnavailableError as exc:
                    self._emit_failure(exc)
                    if arrivals:
                        self._deferred_error = exc
                        break
                    raise
                if span is None:
                    self._fill_cache_if_complete()
                    break
            span_columns, span_arrivals = span
            if columns is None:
                columns, arrivals = span_columns, span_arrivals
            else:
                for position, column in enumerate(span_columns):
                    extend_column(columns, position, column)
                arrivals.extend(span_arrivals)
        if columns is None:
            return Batch.empty(self.output_schema)
        return Batch.from_columns(self.output_schema, columns, arrivals)

    def _do_close(self) -> None:
        self._fill_cache_if_complete()
        if self._extent is not None and not self._extent.complete:
            # Closed early (deactivation, abandoned stream): detach the
            # partial extent *before* releasing the connection slot, so a
            # queued reader admitted into the freed slot resumes from the
            # cached prefix instead of re-fetching from row zero.
            cache = self.context.source_cache
            if cache is not None:
                cache.detach_stream(self._extent)
        self.wrapper.close()


class TableScan(Operator):
    """Scans a relation previously materialized in the local store."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        relation_name: str,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(operator_id, context, estimated_cardinality=estimated_cardinality)
        self.relation_name = relation_name
        self._cursor = 0

    @property
    def output_schema(self) -> Schema:
        return self.context.local_store.get(self.relation_name).schema

    def _do_open(self) -> None:
        self.context.local_store.get(self.relation_name)  # a missing relation fails here
        self._cursor = 0

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        now = self.context.clock.now
        schema = self.output_schema
        if arrival_bound is not None and now >= arrival_bound:
            # Stored rows all arrive "now", and nothing here advances the clock.
            return Batch.empty(schema)
        # Columns come straight from the stored relation (served from its
        # buffered columnar batches when the result was materialized
        # columnar); arrival is "now" for every row.
        columns, count = self.context.local_store.column_block(
            self.relation_name, self._cursor, max_rows
        )
        self._cursor += count
        if not count:
            return Batch.empty(schema)
        # Local block reads stamp every row "now": one arrival run instead
        # of ``count`` boxed floats.
        return Batch.from_columns(schema, columns, RunLengthArrivals.constant(now, count))
