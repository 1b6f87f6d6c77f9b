"""Simulated autonomous data sources.

A :class:`DataSource` holds a base relation and a
:class:`~repro.network.profiles.NetworkProfile`.  It exports the relation as
it is stored — encoded column chunks, read by position — under one qualified
schema, and memoises the stream's clock steps under the current profile; all
of it is shared by every connection.  Opening a connection does only what the
open can change — it lays those steps out from its start time into an arrival
timetable, with no per-tuple Python work and no tuple boxed; the wrapper then
streams *spans* of the export.  Sources can be unavailable (never respond),
fail mid-transfer, or mirror another source's contents — everything the
paper's collector and rescheduling experiments need.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import le
from typing import Sequence

from repro.errors import SourceUnavailableError
from repro.network.profiles import NetworkProfile
from repro.storage.batch import Batch
from repro.storage.columns import DictColumn
from repro.storage.relation import Relation


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
        #: The stream's clock steps, memoised per profile value and cardinality.
        self._stream: tuple = (None, -1, (), ())

    def encoded_column_cache(self) -> tuple[list, list]:
        """The export's ``(columns, dictionaries)``: the relation as it is stored.

        The relation holds its rows as encoded column chunks (string columns
        over frozen dictionaries), so this translates nothing; a dictionary
        is ``None`` where the column has none.
        """
        columns, _ = self.relation.column_block(0, self.relation.cardinality)
        return columns, [
            column.dictionary if type(column) is DictColumn else None for column in columns
        ]

    def column_span(self, start: int, stop: int) -> list:
        """Columns for export rows ``[start, stop)`` — no row is boxed.

        Slices of the relation's stored chunk: dict columns share its frozen
        dictionaries, so downstream consumers move codes.
        """
        return self.relation.column_block(start, stop - start)[0]

    def timetable(self, start_ms: float, start_row: int = 0) -> list[float]:
        """Arrival stamps (a fresh list) for rows ``[start_row, N)`` streamed from ``start_ms``.

        The steps are memoised under the (frozen) profile's *value* and the
        cardinality: a swapped profile or a grown relation rebuilds them for
        the next open and no other.  Every tuple has the schema's one size,
        so a tail's steps are a prefix of the stream's.
        """
        profile, count = self.profile, self.relation.cardinality
        stream = self._stream
        if stream[0] != profile or stream[1] != count:
            sizes = [self.exported_schema.tuple_size] * count
            stream = self._stream = (profile, count, *profile.stream_steps(sizes))
        return profile.lay_out(stream[2], stream[3], max(0, count - start_row), start_ms)

    @property
    def cardinality(self) -> int:
        return self.relation.cardinality

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
        coarseness the batch drive already accepts.  Exact sharing would
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
    :meth:`fetch` one tuple as its export position and stamp.
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
        self._sorted: bool | None = None
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

    @property
    def arrivals_sorted(self) -> bool:
        """Whether the timetable is non-decreasing, read off the timetable itself.

        Every un-jittered profile's is, being an ``accumulate`` over
        non-negative steps; :meth:`fetch_span` then cuts by bisection and the
        wrapper finds a block's already-arrived prefix the same way.  Read on
        the first block, so a connection that never streams one never pays.
        ``sorted`` finds a sorted list's one run in a single pass with its
        specialised float compare (3–5x cheaper than ``all(map(le, ...))``)
        but truly sorts a jittered list; jitter steps back within the first
        tuples, so a short probe turns those away first.
        """
        if self._sorted is None:
            arrivals = self._arrivals
            self._sorted = (
                all(map(le, arrivals[:16], arrivals[1:17])) and arrivals == sorted(arrivals)
            )
        return self._sorted

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

    def fetch(self) -> tuple[int, float]:
        """Deliver the next tuple as ``(export_position, arrival_ms)``.

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
        position = self._cursor
        self._cursor += 1
        self.source.stats.tuples_sent += 1
        return self.base_row + position, self._arrivals[position]

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

        A sorted timetable is cut by bisection — ``bisect_left`` at the bound,
        ``bisect_right`` at the horizon, the same first stopping tuple the walk
        finds; a jittered one, only loosely sorted, is walked.
        """
        if self._closed or self.source.profile.unavailable or max_rows <= 0:
            return None
        start = self._cursor
        stop = len(self._arrivals)
        if self._fail_at_index is not None:
            stop = min(stop, self._fail_at_index)
        stop = min(stop, start + max_rows)
        if self.arrivals_sorted:
            if arrival_bound is not None:
                stop = bisect_left(self._arrivals, arrival_bound, start, stop)
            if arrival_limit is not None:
                stop = bisect_right(self._arrivals, arrival_limit, start, stop)
        elif arrival_bound is not None or arrival_limit is not None:
            arrivals = self._arrivals
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
    count = base.cardinality
    if coverage >= 1.0:
        keep: Sequence[int] = range(count)
    else:
        rng = random.Random(seed)
        keep = [position for position in range(count) if rng.random() < coverage]
    columns, _ = base.column_block(0, count)
    mirrored = Relation(base.name, base.schema)
    mirrored.extend_batch(Batch(base.schema, columns, list(base.arrivals())).take(keep))
    return DataSource(name, mirrored, profile)
