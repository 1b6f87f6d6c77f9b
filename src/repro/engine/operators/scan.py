"""Leaf operators: wrapper scans (remote sources) and table scans (local store)."""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import SourceTimeoutError, SourceUnavailableError
from repro.network.cache import NEED_TAIL, STARVED
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.columns import (
    RunLengthArrivals,
    append_value,
    empty_columns,
    extend_column,
)
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
        self._threshold_counter = 0
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

                self._cache_feed = CachingScanFeed(
                    entry, context.clock, encoded_columns=context.encoded_columns
                )
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
                    self._extent, self.context.clock.now, self.context.session_id
                )
            return
        if self.wrapper.exhausted and self.source_name not in cache:
            # Streamed from row zero to the end: deposit "all of the source"
            # as a view of its export — nothing was collected en route.
            source = self.wrapper.source
            cache.fill(
                self.source_name,
                self.output_schema,
                source.relation.rows,
                now_ms=self.context.clock.now,
                session=self.context.session_id,
                source=source,
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
        """One tuple from whichever stream serves this scan.

        Dispatches across the cache feed, a follower feed (handling tail
        takeover transparently), and the live wrapper (publishing fetched
        rows when this scan is the extent's publisher).  With ``starve_ok``
        a live-but-starved follower returns :data:`STARVED` instead of
        defecting, so batch loops can deliver what they already have.
        """
        if self._cache_feed is not None:
            return self._cache_feed.fetch()
        if self._follower is not None:
            row = self._follower.fetch()
            if row is STARVED and starve_ok:
                return STARVED
            if row is not NEED_TAIL and row is not STARVED:
                return row
            self._begin_tail()
        row = self.wrapper.fetch()
        if row is not None and self._extent is not None:
            self._extent.publish(
                (row,), self.context.clock.now, self.context.session_id
            )
        return row

    def _pull_batched_row(self):
        return self._pull_row(starve_ok=True)

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

    def _next(self) -> Row | None:
        if self.context.is_deactivated(self.operator_id):
            return None
        try:
            row = self._pull_row()
        except SourceUnavailableError as exc:
            self._emit_failure(exc)
            raise
        if row is None:
            self._fill_cache_if_complete()
            return None
        self._threshold_counter += 1
        self.context.emit_event(
            EventType.THRESHOLD, self.operator_id, value=self._threshold_counter
        )
        return row

    def _next_batch(self, max_rows: int) -> Batch:
        return self._batched_fetch(max_rows, None)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        return self._batched_fetch(max_rows, arrival_bound)

    def _batched_fetch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Vectorized fetch loop, optionally stopping at an arrival bound.

        Per-row THRESHOLD events are only emitted when a rule actually watches
        this operator (emitting one Event object per source tuple is the
        single biggest per-row cost of the tuple-at-a-time path); the
        threshold counter itself is always maintained.  A source failure that
        strikes mid-batch is deferred so the rows fetched before it are not
        lost: the partial batch is delivered and the error re-raised on the
        next call, which is when a tuple-at-a-time consumer would have hit it.

        In columnar mode the unwatched block path — live, cache-collecting
        or cache-served alike — builds the batch's column lists straight from
        the fetched blocks (no per-row :class:`Row` objects); the watched,
        follower and publishing paths stay row-based, since they need per-row
        events or publish row objects anyway.
        """
        if self._deferred_error is not None:
            error, self._deferred_error = self._deferred_error, None
            raise error
        context = self.context
        if context.is_deactivated(self.operator_id):
            return Batch.empty(self.output_schema)
        batch: list[Row] = []
        cache_feed = self._cache_feed
        watched = context.event_watched(EventType.THRESHOLD, self.operator_id)
        if cache_feed is not None:
            fetch = cache_feed.fetch
            next_arrival = cache_feed.next_arrival
        else:
            fetch = self._pull_batched_row
            next_arrival = self._stream_next_arrival
        use_block = self._follower is None and not watched
        if use_block and context.columnar and self._extent is None:
            if cache_feed is None or cache_feed.columnar:
                return self._batched_fetch_columnar(max_rows, arrival_bound)
        use_block = use_block and cache_feed is None
        while len(batch) < max_rows:
            if use_block:
                rows = self.wrapper.fetch_batch(max_rows - len(batch), arrival_bound)
                if rows:
                    self._threshold_counter += len(rows)
                    if self._extent is not None:
                        self._extent.publish(rows, context.clock.now, context.session_id)
                    batch.extend(rows)
                    continue
                # Empty block: end of stream, bound reached, or a tuple that
                # would fail/time out — fall through to the per-tuple path,
                # which surfaces each of those with exact semantics.
            if arrival_bound is not None:
                arrival = next_arrival()
                if arrival is None or arrival >= arrival_bound:
                    break
            try:
                row = fetch()
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
            self._threshold_counter += 1
            batch.append(row)
            if watched:
                context.emit_event(
                    EventType.THRESHOLD, self.operator_id, value=self._threshold_counter
                )
                if context.batch_interrupt:
                    break
        return Batch.from_rows(self.output_schema, batch)

    def _batched_fetch_columnar(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Columnar block fetch: identical block/fallback structure, no boxing.

        The feed is the live wrapper or, served from the cache, the cache
        feed — the same ``fetch_columns``/``next_arrival``/``fetch`` shape.
        """
        context = self.context
        feed = self._cache_feed if self._cache_feed is not None else self.wrapper
        columns: list[list] | None = None
        arrivals: list[float] = []
        while len(arrivals) < max_rows:
            block = feed.fetch_columns(max_rows - len(arrivals), arrival_bound)
            if block is not None:
                block_columns, block_arrivals = block
                self._threshold_counter += len(block_arrivals)
                if columns is None:
                    columns, arrivals = block_columns, block_arrivals
                else:
                    for position, column in enumerate(block_columns):
                        extend_column(columns, position, column)
                    arrivals.extend(block_arrivals)
                continue
            # Empty block: end of stream, bound reached, or a tuple that
            # would fail/time out — take one per-tuple step, which surfaces
            # each of those with exact semantics.
            if arrival_bound is not None:
                arrival = feed.next_arrival()
                if arrival is None or arrival >= arrival_bound:
                    break
            try:
                row = feed.fetch()
            except SourceUnavailableError as exc:
                self._emit_failure(exc)
                if arrivals:
                    self._deferred_error = exc
                    break
                raise
            if row is None:
                self._fill_cache_if_complete()
                break
            self._threshold_counter += 1
            if columns is None:
                # In encoded mode the string accumulators share the
                # wrapper's dictionaries, so a batch that starts on the
                # per-tuple fallback stays code-compatible with block
                # fetches (and keeps downstream concats encoding-stable).
                columns = empty_columns(
                    self.output_schema,
                    self.wrapper.encoded_columns,
                    self.wrapper.column_dictionaries(),
                )
            for position, value in enumerate(row.values):
                append_value(columns, position, value)
            arrivals.append(row.arrival)
        schema = self.output_schema
        if columns is None:
            return Batch.empty(schema)
        return Batch.from_columns(schema, columns, arrivals)

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
        self._relation = None
        self._cursor = 0

    @property
    def output_schema(self) -> Schema:
        return self.context.local_store.get(self.relation_name).schema

    def _do_open(self) -> None:
        # Row access stays lazy: a relation materialized columnar is only
        # boxed into Row objects if the tuple path actually reads it.
        self._relation = self.context.local_store.get(self.relation_name)
        self._cursor = 0

    def _next(self) -> Row | None:
        # Boxes only the row delivered (a relation materialized columnar
        # stays columnar).  Local reads are CPU + buffer-pool work; the base
        # class adds the generic per-tuple CPU charge on return.
        row = self._relation.row_at(self._cursor, self.context.clock.now)
        if row is not None:
            self._cursor += 1
        return row

    def _next_batch(self, max_rows: int) -> Batch:
        now = self.context.clock.now
        schema = self.output_schema
        if self.context.columnar:
            # Columns come straight from the stored relation (served from its
            # buffered columnar batches when the result was materialized
            # columnar); arrival is "now" for every row, as in the tuple path.
            columns, count = self.context.local_store.column_block(
                self.relation_name, self._cursor, max_rows
            )
            self._cursor += count
            if not count:
                return Batch.empty(schema)
            # Local block reads stamp every row "now": one arrival run in
            # encoded mode instead of ``count`` boxed floats.
            arrivals = (
                RunLengthArrivals.constant(now, count)
                if self.context.encoded_columns
                else [now] * count
            )
            return Batch.from_columns(schema, columns, arrivals)
        block = self.context.local_store.row_block(
            self.relation_name, self._cursor, max_rows
        )
        self._cursor += len(block)
        if not block:
            return Batch.empty(schema)
        return Batch.from_rows(schema, [row.with_arrival(now) for row in block])

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        # Stored rows all arrive "now", and nothing here advances the clock.
        if self.context.clock.now >= arrival_bound:
            return Batch.empty(self.output_schema)
        return self._next_batch(max_rows)
