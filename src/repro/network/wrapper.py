"""Wrappers: the engine's interface to data sources.

In Tukwila, wrappers hide source-specific protocols and feed tuples to the
execution engine, optionally buffering.  Here a :class:`Wrapper` adapts a
:class:`~repro.network.source.DataSource` connection into the streaming
interface used by scan operators: ``open`` / ``next_arrival`` / ``fetch`` /
``close``, plus timeout detection relative to the query's virtual clock.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SourceTimeoutError, SourceUnavailableError
from repro.network.simclock import SimClock
from repro.network.source import DataSource, SourceConnection
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
    encoded_columns:
        When true, :meth:`fetch_columns` dictionary-encodes string columns
        into *wrapper-owned* dictionaries that persist across blocks, so
        every batch from one source shares codes (and every occurrence of a
        value decodes to one canonical string object).
    """

    def __init__(
        self,
        source: DataSource,
        clock: SimClock,
        timeout_ms: float | None = None,
        per_tuple_cpu_ms: float = 0.002,
        encoded_columns: bool = True,
    ) -> None:
        self.source = source
        self.clock = clock
        self.timeout_ms = timeout_ms
        self.per_tuple_cpu_ms = per_tuple_cpu_ms
        self.encoded_columns = encoded_columns
        self.stats = WrapperStats()
        self._connection: SourceConnection | None = None
        self._dictionaries = None

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

    def reset(self) -> None:
        """Drop the connection so the wrapper can be reopened (rescheduling)."""
        self.close()
        self._connection = None

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

    def would_timeout(self) -> bool:
        """True when waiting for the next tuple would exceed the timeout."""
        if self.timeout_ms is None:
            return False
        arrival = self.next_arrival()
        if arrival is None:
            return False
        return arrival - self.clock.now > self.timeout_ms

    def fetch(self) -> Row | None:
        """Fetch the next tuple, advancing the virtual clock to its arrival.

        Returns ``None`` at end of stream.

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
            row, arrival = connection.fetch()
        except SourceUnavailableError:
            self.stats.errors += 1
            raise
        self.clock.advance_to(arrival)
        self.clock.consume_cpu(self.per_tuple_cpu_ms)
        self.stats.tuples_fetched += 1
        if self.stats.time_of_first_tuple is None:
            self.stats.time_of_first_tuple = self.clock.now
        self.stats.time_of_last_tuple = self.clock.now
        return row.with_arrival(self.clock.now)

    def _fetch_stamped(
        self, max_rows: int, arrival_bound: float | None
    ) -> tuple[int, int, list[float]] | None:
        """One block as ``(start, stop, stamps)`` over the source's export.

        Never raises: the block stops *before* any tuple that would time out,
        fail, or land at/after the bound; ``None`` is the empty block, and the
        per-tuple :meth:`fetch` surfaces errors with their exact semantics on
        the caller's next pull.  Clock accounting and the arrival stamps are
        identical to fetching the same tuples one at a time.
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
        wait_total = 0.0
        stamped: list[float] = []
        append = stamped.append
        for arrival in arrivals:
            if arrival > now:
                wait_total += arrival - now
                now = arrival
            now += cpu
            append(now)
        self.clock.charge(wait_total, cpu * len(arrivals))
        stats = self.stats
        stats.tuples_fetched += len(arrivals)
        if stats.time_of_first_tuple is None:
            stats.time_of_first_tuple = stamped[0]
        stats.time_of_last_tuple = now
        return start, stop, stamped

    def fetch_batch(self, max_rows: int, arrival_bound: float | None = None) -> list[Row]:
        """Bulk fetch as stamped rows (possibly none) — a declared tuple boundary."""
        block = self._fetch_stamped(max_rows, arrival_bound)
        if block is None:
            return []
        start, stop, stamped = block
        schema = self.schema
        make = Row.make  # repro: allow[hot-path-row] the row-batch fetch boxes by contract
        stored = self.source.relation.rows[start:stop]
        return [make(schema, row.values, stamp) for row, stamp in zip(stored, stamped)]

    def column_dictionaries(self):
        """The source's persistent per-column dictionaries (``None`` unencoded).

        Shared with scan operators so columns built on the per-tuple
        fallback path stay code-compatible with block fetches, and shared
        across wrappers of one source (the dictionaries belong to the
        source's one-time translation cache).
        """
        if not self.encoded_columns:
            return None
        if self._dictionaries is None:
            self._dictionaries = self.source.encoded_column_cache()[1]
        return self._dictionaries

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
        return self.source.column_span(start, stop, self.encoded_columns), stamped

    def fetch_available(self) -> Row | None:
        """Fetch the next tuple only if it has already arrived; else ``None``.

        Used by data-driven operators that poll multiple wrappers and only
        want to consume from whichever has data ready.
        """
        connection = self._require_connection()
        arrival = connection.next_arrival()
        if arrival is None or arrival > self.clock.now:
            return None
        return self.fetch()
