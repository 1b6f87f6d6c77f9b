"""Simulated autonomous data sources.

A :class:`DataSource` holds a base relation and a
:class:`~repro.network.profiles.NetworkProfile`.  What it exports is static,
so it is built once per source and shared by every connection: the qualified
schema, the plain/encoded columns, and the stream's clock steps under the
current profile.  Opening a connection does only what the open can change —
it lays those steps out from its start time into an arrival timetable, with no
per-tuple Python work and no tuple boxed; the wrapper then streams *spans* of
the export.  Sources can be unavailable (never respond), fail mid-transfer,
or mirror another source's contents — everything the paper's collector and
rescheduling experiments need.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

import random
from dataclasses import dataclass
from repro.errors import SourceUnavailableError
from repro.network.profiles import NetworkProfile
from repro.storage.batch import typed_transpose
from repro.storage.relation import Relation
from repro.storage.tuples import Row


@dataclass
class SourceStats:
    """Per-source counters maintained across a query."""

    connections_opened: int = 0
    tuples_sent: int = 0
    failures: int = 0
    #: Virtual ms connections spent queued for a free connection slot
    #: (only accrues on sources with ``max_concurrent`` set).
    queued_ms: float = 0.0
    connections_queued: int = 0


class DataSource:
    """An autonomous source exporting one relation over a simulated link.

    Parameters
    ----------
    name:
        Unique source identifier (e.g. ``"db2.orders"`` or ``"mirror-eu"``).
    relation:
        The data the source exports.  The exported schema is the relation's
        schema qualified with the relation name.
    profile:
        Timing/reliability model for the connection.
    max_concurrent:
        Upper bound on simultaneously streaming connections (``None`` =
        unbounded, the single-query default).  An autonomous source serves
        only so many clients at once; when the multi-query server opens a
        connection past the bound, its stream is *queued* — the arrival
        timetable starts when the earliest-finishing active connection
        frees its slot, so queued fetches wait on the shared virtual
        timeline exactly like slow links do.
    """

    def __init__(
        self,
        name: str,
        relation: Relation,
        profile: NetworkProfile | None = None,
        max_concurrent: int | None = None,
    ) -> None:
        if max_concurrent is not None and max_concurrent <= 0:
            raise ValueError(f"max_concurrent must be positive, got {max_concurrent}")
        self.name = name
        self.relation = relation
        self.profile = profile or NetworkProfile()
        self.max_concurrent = max_concurrent
        self.stats = SourceStats()
        #: Busy-until time per occupied connection slot (bounded sources only).
        self._slots: list[float] = []
        #: Schema visible to the integration system (qualified names): one
        #: instance for connection, wrapper, cache entry and scan alike, so
        #: per-schema-instance caches (``KeyBinder``) keep hitting.
        self.exported_schema = relation.schema.qualified(relation.name)
        self._export: tuple[int, dict] = (-1, {})

    def _export_parts(self) -> dict:
        """Memo of the static export, dropped whole when the cardinality changed."""
        cardinality = self.relation.cardinality
        if self._export[0] != cardinality:
            self._export = (cardinality, {})
        return self._export[1]

    def encoded_column_cache(self) -> tuple[list, list]:
        """The relation translated once into plain/encoded columns.

        Source data is static, so the wrapper's translation step (the XML
        parsing/Unicode conversion of the original system — here the
        dictionary-encoded column build) is done once per source and
        shared by every wrapper: connections deliver rows sequentially, so a
        block is a pair of C-level column slices over this cache.  Returns
        ``(columns, dictionaries)``; rebuilt, with the rest of the export,
        if the relation's cardinality changed since the last build.
        """
        parts = self._export_parts()
        if "columns" not in parts:
            from repro.storage.columns import build_columns, make_dictionaries

            schema = self.exported_schema
            dictionaries = make_dictionaries(schema)
            rows = self.relation.rows
            if rows:
                columns = build_columns(
                    schema, list(zip(*(row.values for row in rows))), True, dictionaries
                )
            else:
                columns = [[] for _ in range(len(schema))]
            # Freeze: the cache outlives any one query and is shared by every
            # consumer downstream.  A consumer mixing in values from another
            # source (a union/collector concat, a join output accumulator)
            # must degrade its own column, never grow this dictionary.
            for dictionary in dictionaries:
                if dictionary is not None:
                    dictionary.freeze()
            parts["columns"] = columns, dictionaries
        return parts["columns"]

    def column_span(self, start: int, stop: int, encoded: bool = True) -> list:
        """Columns for export rows ``[start, stop)`` — no row is boxed.

        Encoded: C-level slices over the one-time translation cache, sharing
        the source dictionaries so downstream consumers move codes.  Plain:
        a transpose straight off the stored relation (qualification only
        renames, so its rows carry the values).
        """
        if encoded:
            return [column[start:stop] for column in self.encoded_column_cache()[0]]
        return typed_transpose(self.exported_schema, self.relation.rows[start:stop])

    def timetable(self, start_ms: float, start_row: int = 0) -> list[float]:
        """Arrival stamps (a fresh list) for rows ``[start_row, N)`` streamed from ``start_ms``.

        The steps are memoised under the (frozen) profile's *value*: a swapped
        profile rebuilds them for the next open and no other.  Every tuple has
        the schema's one size, so a tail's steps are a prefix of the stream's.
        """
        parts = self._export_parts()
        profile, count = self.profile, self.relation.cardinality
        stream = parts.get("stream")
        if stream is None or stream[0] != profile:
            sizes = [self.exported_schema.tuple_size] * count
            stream = parts["stream"] = (profile, *profile.stream_steps(sizes))
        return profile.lay_out(stream[1], stream[2], max(0, count - start_row), start_ms)

    @property
    def cardinality(self) -> int:
        return self.relation.cardinality

    @property
    def size_bytes(self) -> int:
        return self.relation.size_bytes

    def set_profile(self, profile: NetworkProfile) -> None:
        """Swap the network profile (benchmarks vary link conditions this way)."""
        self.profile = profile

    def open(self, at_ms: float = 0.0, start_row: int = 0) -> "SourceConnection":
        """Open a connection at virtual time ``at_ms``.

        On a concurrency-bounded source the stream may be queued: the
        connection object exists immediately, but its arrival timetable
        starts only when a slot frees (``queued_ms`` on the connection and
        the source stats records the delay).

        ``start_row`` re-requests the stream from an offset (a follower of a
        partial cached extent fetching just the tail): the timetable covers
        only the remaining rows, laid out from the stream start as any fresh
        request would be.
        """
        self.stats.connections_opened += 1
        start_ms, slot = self._claim_slot(at_ms)
        connection = SourceConnection(
            self, start_ms, slot=slot, requested_at_ms=at_ms, start_row=start_row
        )
        if slot is not None:
            # The slot stays busy until the last scheduled arrival (released
            # earlier if the reader closes before draining the stream).
            busy_until = connection._arrivals[-1] if connection._arrivals else start_ms
            self._slots[slot] = busy_until
        if start_ms > at_ms:
            self.stats.queued_ms += start_ms - at_ms
            self.stats.connections_queued += 1
        return connection

    def _claim_slot(self, at_ms: float) -> tuple[float, int | None]:
        """Effective stream start and slot index under the concurrency bound.

        Each slot tracks a single busy-until time, so an open can queue
        behind a window claimed by a session running *ahead* on the shared
        timeline even if the slot was idle at the opener's own virtual
        time.  This is a deliberate conservative approximation (queueing
        may be overestimated, never missed): the scheduler's frontier-first
        order makes it deterministic, and it matches the batch-granular
        coarseness the drive modes already accept.  Exact sharing would
        need per-slot busy *interval* bookkeeping.
        """
        if self.max_concurrent is None or self.profile.unavailable:
            return at_ms, None
        # Reuse a slot already free at ``at_ms`` before queueing behind one.
        for index, busy_until in enumerate(self._slots):
            if busy_until <= at_ms:
                return at_ms, index
        if len(self._slots) < self.max_concurrent:
            self._slots.append(at_ms)
            return at_ms, len(self._slots) - 1
        index = min(range(len(self._slots)), key=self._slots.__getitem__)
        return max(at_ms, self._slots[index]), index

    def _release_slot(self, slot: int, at_ms: float) -> None:
        """Free a slot earlier than projected (reader closed mid-stream)."""
        if 0 <= slot < len(self._slots) and at_ms < self._slots[slot]:
            self._slots[slot] = at_ms

    def free_slots(self, at_ms: float) -> int | None:
        """Connection slots free at ``at_ms`` (``None`` = unbounded).

        Side-effect free: the prefetcher's decision hook uses this to warm
        sources within *spare* capacity only, without claiming anything.
        """
        if self.max_concurrent is None:
            return None
        busy = sum(1 for busy_until in self._slots if busy_until > at_ms)
        return max(0, self.max_concurrent - busy)

    def reset_concurrency(self) -> None:
        """Forget slot occupancy (benchmark repetitions restart virtual time)."""
        self._slots = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataSource({self.name!r}, {self.relation.cardinality} tuples, "
            f"profile={self.profile.name!r})"
        )


class SourceConnection:
    """A single streaming connection to a :class:`DataSource`.

    A connection is a cursor and an arrival timetable over rows
    ``[base_row, N)`` of the source's shared export; opening one boxes no
    tuple and copies no data.  :meth:`next_arrival` exposes the timestamp of
    the next undelivered tuple so that data-driven operators (the double
    pipelined join, the collector) can choose which input to service first;
    :meth:`fetch_span` delivers a block as export positions plus stamps, and
    :meth:`fetch` boxes the one tuple it delivers.
    """

    def __init__(
        self,
        source: DataSource,
        opened_at_ms: float,
        slot: int | None = None,
        requested_at_ms: float | None = None,
        start_row: int = 0,
    ) -> None:
        self.source = source
        #: When the stream actually starts — past ``requested_at_ms`` when
        #: the connection queued for a slot on a concurrency-bounded source.
        self.opened_at_ms = opened_at_ms
        self.requested_at_ms = opened_at_ms if requested_at_ms is None else requested_at_ms
        #: First row of the export this connection streams (tail re-requests).
        self.base_row = start_row
        self._slot = slot
        self._cursor = 0
        self._closed = False
        #: Arrival stamp of every tuple this connection streams (its own list).
        self._arrivals: list[float] = (
            [] if source.profile.unavailable else source.timetable(opened_at_ms, start_row)
        )
        limit = source.profile.drop_after_tuples
        if limit is not None:
            # The failure point is a property of the source's export, not of
            # this connection: a tail re-request still dies at the same row.
            limit = max(0, limit - start_row)
        self._fail_at_index = limit

    # -- streaming interface -----------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every available tuple has been delivered."""
        if self.source.profile.unavailable:
            return False  # a dead source never finishes, it times out
        return self._cursor >= len(self._arrivals)

    @property
    def closed(self) -> bool:
        return self._closed

    def next_arrival(self) -> float | None:
        """Virtual arrival time of the next tuple, or ``None`` when exhausted.

        For an unavailable source this returns ``float('inf')`` — the tuple
        never arrives, which is what drives timeout events.
        """
        if self._closed:
            return None
        if self.source.profile.unavailable:
            return float("inf")
        if self.exhausted:
            return None
        return self._arrivals[self._cursor]

    def fetch(self) -> tuple[Row, float]:
        """Deliver the next tuple as ``(row, arrival_ms)``.

        Raises
        ------
        SourceUnavailableError
            If the source is dead, has failed mid-transfer, or is exhausted.
        """
        if self._closed:
            raise SourceUnavailableError(f"connection to {self.source.name!r} is closed")
        if self.source.profile.unavailable:
            self.source.stats.failures += 1
            raise SourceUnavailableError(f"source {self.source.name!r} is not responding")
        if self._fail_at_index is not None and self._cursor >= self._fail_at_index:
            self.source.stats.failures += 1
            raise SourceUnavailableError(
                f"source {self.source.name!r} failed after {self._cursor} tuples"
            )
        if self.exhausted:
            raise SourceUnavailableError(f"source {self.source.name!r} is exhausted")
        source = self.source
        values = source.relation.rows[self.base_row + self._cursor].values
        arrival = self._arrivals[self._cursor]
        self._cursor += 1
        source.stats.tuples_sent += 1
        # repro: allow[hot-path-row] the per-tuple fetch boxes its one tuple (a declared boundary)
        return Row.make(source.exported_schema, values, arrival), arrival

    def fetch_span(
        self, max_rows: int, arrival_bound: float | None = None, arrival_limit: float | None = None
    ) -> tuple[int, int, list[float]] | None:
        """Deliver up to ``max_rows`` tuples as ``(start, stop, arrivals)``.

        ``[start, stop)`` are positions in the source's export; ``None`` is
        the empty block.  Stops *without raising* at the failure point, the
        timetable's end, or the first tuple arriving at/after
        ``arrival_bound`` (exclusive) or beyond ``arrival_limit`` (inclusive —
        the caller's timeout horizon); the caller falls back to :meth:`fetch`,
        which surfaces failures and timeouts with exact per-tuple semantics.
        """
        if self._closed or self.source.profile.unavailable or max_rows <= 0:
            return None
        start = self._cursor
        stop = len(self._arrivals)
        if self._fail_at_index is not None:
            stop = min(stop, self._fail_at_index)
        stop = min(stop, start + max_rows)
        if arrival_bound is not None or arrival_limit is not None:
            arrivals = self._arrivals
            # Walk rather than bisect: jittered schedules are only loosely sorted.
            for index in range(start, stop):
                arrival = arrivals[index]
                if arrival_bound is not None and arrival >= arrival_bound:
                    stop = index
                    break
                if arrival_limit is not None and arrival > arrival_limit:
                    stop = index
                    break
        if stop <= start:
            return None
        self._cursor = stop
        self.source.stats.tuples_sent += stop - start
        return self.base_row + start, self.base_row + stop, self._arrivals[start:stop]

    @property
    def queued_ms(self) -> float:
        """How long this connection waited for a slot before streaming."""
        return self.opened_at_ms - self.requested_at_ms

    def close(self, at_ms: float | None = None) -> None:
        """Tear down the connection (collector `deactivate` uses this).

        ``at_ms`` (the closer's virtual time) lets a concurrency-bounded
        source free the connection slot earlier than the projected end of
        the stream when the reader abandons it mid-transfer.
        """
        self._closed = True
        if self._slot is not None and at_ms is not None:
            self.source._release_slot(self._slot, at_ms)

    def remaining(self) -> int:
        """Tuples not yet delivered (0 for unavailable sources)."""
        if self.source.profile.unavailable:
            return 0
        limit = len(self._arrivals)
        if self._fail_at_index is not None:
            limit = min(limit, self._fail_at_index)
        return max(0, limit - self._cursor)


def make_mirror(
    source: DataSource,
    name: str,
    profile: NetworkProfile,
    coverage: float = 1.0,
    seed: int = 0,
) -> DataSource:
    """Create a mirror of ``source`` carrying a random ``coverage`` fraction of rows.

    Mirrors with coverage < 1.0 model partially overlapping sources; coverage
    1.0 models a true mirror.  Row selection is deterministic given ``seed``.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    base = source.relation
    if coverage >= 1.0:
        rows = list(base.rows)
    else:
        rng = random.Random(seed)
        rows = [row for row in base.rows if rng.random() < coverage]
    mirrored = Relation(base.name, base.schema, rows)
    return DataSource(name, mirrored, profile)
