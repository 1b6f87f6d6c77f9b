"""Wrappers: the engine's interface to data sources.

In Tukwila, wrappers hide source-specific protocols and feed tuples to the
execution engine, optionally buffering.  Here a :class:`Wrapper` adapts a
:class:`~repro.network.source.DataSource` connection into the streaming
interface used by scan operators: ``open`` / ``next_arrival`` /
``fetch_columns`` (a block) / ``fetch`` (one tuple, exact failure and timeout
semantics) / ``close``, plus timeout detection relative to the query's
virtual clock.  Both fetches deliver column spans of the source's export.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

from repro.errors import SourceTimeoutError, SourceUnavailableError
from repro.network.simclock import SimClock
from repro.network.source import DataSource, SourceConnection
from repro.storage.batch import Batch
from repro.storage.schema import Schema
from repro.storage.tuples import Row


@dataclass
class WrapperStats:
    """Counters kept by each wrapper during a query."""

    tuples_fetched: int = 0
    time_of_first_tuple: float | None = None
    time_of_last_tuple: float | None = None
    timeouts: int = 0
    errors: int = 0


class Wrapper:
    """Streams tuples from one data source into the execution engine.

    Parameters
    ----------
    source:
        The data source being wrapped.
    clock:
        The query's virtual clock; fetching a tuple advances it to the
        tuple's arrival time plus a small per-tuple translation cost.
    timeout_ms:
        If the next tuple's arrival lies more than this far beyond the
        current virtual time, :meth:`fetch` raises :class:`SourceTimeoutError`
        instead of stalling, which is what raises the engine's timeout event.
    per_tuple_cpu_ms:
        CPU cost to translate one tuple from the source format (XML parsing
        and Unicode conversion in the original system).
    """

    def __init__(
        self,
        source: DataSource,
        clock: SimClock,
        timeout_ms: float | None = None,
        per_tuple_cpu_ms: float = 0.002,
    ) -> None:
        self.source = source
        self.clock = clock
        self.timeout_ms = timeout_ms
        self.per_tuple_cpu_ms = per_tuple_cpu_ms
        self.stats = WrapperStats()
        self._connection: SourceConnection | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def schema(self) -> Schema:
        return self.source.exported_schema

    @property
    def is_open(self) -> bool:
        return self._connection is not None and not self._connection.closed

    def open(self, start_row: int = 0) -> None:
        """Open the source connection at the current virtual time.

        ``start_row`` re-requests the export from an offset — a reader that
        consumed a cached prefix fetching only the tail.
        """
        self._connection = self.source.open(at_ms=self.clock.now, start_row=start_row)

    def close(self) -> None:
        """Close the connection; further fetches raise.

        The close is stamped with the clock's current virtual time so a
        concurrency-bounded source can free the connection slot for queued
        sessions as soon as this reader abandons the stream.
        """
        if self._connection is not None:
            self._connection.close(at_ms=self.clock.now)

    # -- streaming ---------------------------------------------------------------

    def _require_connection(self) -> SourceConnection:
        if self._connection is None or self._connection.closed:
            raise SourceUnavailableError(f"wrapper {self.name!r} is not open")
        return self._connection

    @property
    def exhausted(self) -> bool:
        """True once the source has delivered every tuple."""
        if self._connection is None:
            return False
        return self._connection.exhausted

    def next_arrival(self) -> float | None:
        """Arrival time of the next tuple (``inf`` for dead sources, ``None`` at EOF)."""
        return self._require_connection().next_arrival()

    def peek_next_arrival(self) -> float | None:
        """Like :meth:`next_arrival` but ``None`` instead of raising when not open.

        Side-effect free; partial-extent followers forward this through
        ``peek_arrival`` so the scheduler sees the live stream's next block.
        """
        if self._connection is None or self._connection.closed:
            return None
        return self._connection.next_arrival()

    def fetch(self) -> tuple[list, list[float]] | None:
        """Fetch the next tuple, advancing the virtual clock to its arrival.

        Returns a one-row span ``(columns, [stamp])`` — the shape of
        :meth:`fetch_columns` — or ``None`` at end of stream.

        Raises
        ------
        SourceTimeoutError
            If the wait for the next tuple exceeds ``timeout_ms``.
        SourceUnavailableError
            If the source fails mid-transfer or the wrapper is not open.
        """
        connection = self._require_connection()
        arrival = connection.next_arrival()
        if arrival is None:
            return None
        if self.timeout_ms is not None and arrival - self.clock.now > self.timeout_ms:
            self.stats.timeouts += 1
            # The engine observed a timeout: virtual time has passed while
            # waiting for the source before giving up.
            self.clock.advance_to(self.clock.now + self.timeout_ms)
            raise SourceTimeoutError(
                f"source {self.name!r} did not respond within {self.timeout_ms} ms"
            )
        try:
            position, arrival = connection.fetch()
        except SourceUnavailableError:
            self.stats.errors += 1
            raise
        self.clock.advance_to(arrival)
        self.clock.consume_cpu(self.per_tuple_cpu_ms)
        self.stats.tuples_fetched += 1
        if self.stats.time_of_first_tuple is None:
            self.stats.time_of_first_tuple = self.clock.now
        self.stats.time_of_last_tuple = self.clock.now
        return self.source.column_span(position, position + 1), [self.clock.now]

    def _fetch_stamped(
        self, max_rows: int, arrival_bound: float | None
    ) -> tuple[int, int, list[float]] | None:
        """One block as ``(start, stop, stamps)`` over the source's export.

        Never raises: the block stops *before* any tuple that would time out,
        fail, or land at/after the bound; ``None`` is the empty block, and the
        per-tuple :meth:`fetch` surfaces errors with their exact semantics on
        the caller's next pull.  Clock accounting and the arrival stamps are
        identical to fetching the same tuples one at a time.

        Tuples that had arrived by the block's start wait for nothing: on a
        sorted timetable they are the prefix up to ``bisect_right(arrivals,
        now)``, stamped at C level with the clock's running ``accumulate`` of
        back-to-back CPU charges (:meth:`SimClock.consume_cpu_run`'s
        additions).  The per-tuple loop starts at the first tuple that may
        wait — measured faster than any C-level chain there, and its wait
        total must stay a sequential sum (``sum()`` is compensated since 3.12).
        """
        connection = self._connection
        if connection is None or connection.closed:
            return None
        now = self.clock.now
        limit = now + self.timeout_ms if self.timeout_ms is not None else None
        span = connection.fetch_span(max_rows, arrival_bound=arrival_bound, arrival_limit=limit)
        if span is None:
            return None
        start, stop, arrivals = span
        cpu = self.per_tuple_cpu_ms
        count = len(arrivals)
        wait_total = 0.0
        arrived = bisect_right(arrivals, now) if connection.arrivals_sorted else 0
        if arrived:
            stamped = list(accumulate(repeat(cpu, arrived), initial=now))
            now = stamped[-1]
            del stamped[0]
            arrivals = arrivals[arrived:]
        else:
            stamped = []
        append = stamped.append
        for arrival in arrivals:
            if arrival > now:
                wait_total += arrival - now
                now = arrival
            now += cpu
            append(now)
        self.clock.charge(wait_total, cpu * count)
        stats = self.stats
        stats.tuples_fetched += count
        if stats.time_of_first_tuple is None:
            stats.time_of_first_tuple = stamped[0]
        stats.time_of_last_tuple = now
        return start, stop, stamped

    def fetch_batch(self, max_rows: int, arrival_bound: float | None = None) -> list[Row]:
        """Bulk fetch as stamped rows (possibly none): the block of
        :meth:`fetch_columns`, boxed for the speculative publisher."""
        block = self._fetch_stamped(max_rows, arrival_bound)
        if block is None:
            return []
        start, stop, stamped = block
        return Batch(self.schema, self.source.column_span(start, stop), stamped).rows()

    def fetch_columns(
        self, max_rows: int, arrival_bound: float | None = None
    ) -> tuple[list[list], list[float]] | None:
        """Columnar bulk fetch: ``(columns, arrival_stamps)`` or ``None``.

        The same block as :meth:`fetch_batch` in another representation — one
        column slice per attribute over the source's export, no :class:`Row`
        created.  ``None`` (the empty block) means end of stream, bound
        reached, or a tuple that would fail or time out; callers fall back to
        :meth:`fetch` for exact semantics.
        """
        block = self._fetch_stamped(max_rows, arrival_bound)
        if block is None:
            return None
        start, stop, stamped = block
        return self.source.column_span(start, stop), stamped
