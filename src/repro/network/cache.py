"""Source-result caching (the paper's "caching of source data" extension).

Section 8 of the paper lists optimistic prefetching and caching of source
data as planned extensions.  This module provides the caching half: a
:class:`SourceCache` remembers the full contents of sources that have been
read to completion, so later scans of the same source — in the same query
(self-joins, retries after rescheduling) or in later queries sharing the
cache — are served locally instead of crossing the network again.

In the multi-query server one cache is shared by *every* session, with
**completion-based admission**: the first session to read a source's full
extent deposits it, and from that virtual moment on every other session's
scans and dependent-join probes over that source run at local CPU speed.
Fills are tagged with the filling session and stamped with its virtual
time; a lookup from a session whose clock has not yet reached an entry's
fill time treats the entry as not yet visible (a miss), which keeps the
shared cache causal on the server timeline even though sessions advance
their clocks at different rates.

The speculative source layer relaxes completion-based admission to
**partial-extent streaming**: the first reader of a source registers a
:class:`PartialExtent` and publishes its in-progress stream block by block,
each block tagged with the filling session and its fill virtual time.  A
later scan of the same source attaches a :class:`StreamFollowerFeed` that
serves the cached prefix at local CPU speed — never observing a row before
its fill time, the same causality rule the completed-entry guard enforces —
and then *falls in behind* the live connection for the tail, sharing one
stream instead of queueing for a connection slot.  When the publisher
closes early (slot released mid-stream) the extent is detached but kept, so
the next reader resumes from the cached prefix and re-opens the source for
just the tail.

The cache is consistency-agnostic by design (autonomous sources give no
invalidation signal); entries carry the virtual time at which they were
filled and can be expired by age or dropped explicitly.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.source import DataSource
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row

#: CPU cost (virtual ms) to serve one tuple from cached source data instead
#: of the network.  Shared by :class:`CachingScanFeed` and the dependent
#: join's cached probes so the same simulated work costs the same everywhere.
CACHE_SERVE_CPU_MS = 0.001


@dataclass
class CacheEntry:
    """One source's complete exported stream.

    ``rows`` carry the values; every server binds them to ``schema`` and
    re-stamps, so nothing reads a cached row's own schema or arrival.  A scan
    that drained ``source`` deposits "all of source X": the entry aliases the
    source's stored rows and serves columns from its static export.
    """

    source_name: str
    schema: Schema
    rows: list[Row]
    filled_at_ms: float
    filled_by: str | None = None
    source: DataSource | None = None

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def as_relation(self) -> Relation:
        """The cached contents as a relation named after the source."""
        values = [row.values for row in self.rows]
        return Relation.from_values(self.source_name, self.schema, values)


@dataclass
class CacheStats:
    """Hit/miss counters for a cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    invalidations: int = 0
    #: Hits where the entry was filled by a *different* session than the one
    #: looking it up — the cross-query sharing the server benchmark measures.
    cross_session_hits: int = 0
    #: Misses on entries that exist but were filled at a virtual time the
    #: looking session has not reached yet (causality guard).
    not_yet_visible: int = 0
    #: Followers attached to an in-progress (or detached) partial extent —
    #: reads served from a prefix another reader is still streaming.
    partial_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class SourceCacheCounters:
    """Per-source slice of the cache counters (for :class:`ServerStats`)."""

    hits: int = 0
    cross_session_hits: int = 0
    partial_hits: int = 0


#: Sentinel returned by :meth:`StreamFollowerFeed.fetch` when the extent is
#: detached (publisher gone): the follower must open its own tail connection.
NEED_TAIL = object()
#: Sentinel returned when the extent is live but the follower has consumed
#: everything published so far — nothing to do until the publisher's next
#: block lands.  Callers deliver a partial batch if they have one; with
#: nothing buffered they fall back to their own connection (rare: the wait
#: hint from :meth:`StreamFollowerFeed.next_arrival` schedules the follower
#: strictly after the publisher's next event).
STARVED = object()


@dataclass
class ExtentBlock:
    """One published block of a partial extent (stats/debugging view)."""

    start: int
    stop: int
    filled_at_ms: float
    filled_by: str | None


class PartialExtent:
    """An in-progress source extent, published block-by-block by its reader.

    Every appended row carries the virtual time at which its publisher made
    it available; followers never observe a row before that time (on the
    shared server timeline) — the streaming generalization of the completed
    entry's fill-time guard.  Fill times are non-decreasing: a publisher only
    appends at its own (monotone) clock, and a takeover publisher has already
    consumed the prefix, advancing its clock past the last fill.
    """

    def __init__(
        self,
        source_name: str,
        schema: Schema,
        started_at_ms: float,
        publisher: str | None,
    ) -> None:
        self.source_name = source_name
        self.schema = schema
        self.started_at_ms = started_at_ms
        self.rows: list[Row] = []
        self.blocks: list[ExtentBlock] = []
        self._fill_times: list[float] = []
        self.publisher = publisher
        self.complete = False
        #: Set when the cache drops the extent (revocation/invalidation);
        #: attached followers fall back to their own tail connection.
        self.dropped = False
        self._publisher_clock = None
        self._live_probe = None
        self._live_demand = None

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def is_live(self) -> bool:
        """True while a publisher is attached and still streaming."""
        return self._publisher_clock is not None and not self.complete

    def attach_publisher(self, session: str | None, clock, probe, demand=None) -> None:
        """Register the reader currently streaming this extent's tail.

        ``probe`` is a side-effect-free callable returning the live
        connection's next-block arrival time (or ``None``); together with the
        publisher's clock it lets followers forward the stream's next event
        to the scheduler without perturbing it.  ``demand`` — supplied only by
        publishers that are not sessions (the prefetcher) — lets a caught-up
        follower drive the stream synchronously: ``demand(now_ms)`` publishes
        every row the live connection has delivered by ``now_ms``.  Session
        publishers never pass it; their unpublished rows have unknown fill
        times, so followers must wait for the publisher's own step.
        """
        self.publisher = session
        self._publisher_clock = clock
        self._live_probe = probe
        self._live_demand = demand

    def detach(self) -> None:
        """The publisher is gone (closed early or revoked); keep the prefix."""
        self._publisher_clock = None
        self._live_probe = None
        self._live_demand = None

    def demand_live(self, clock) -> bool:
        """Drive a demand-pumping publisher up to the follower's clock.

        Advances the follower's ``clock`` to the live connection's next
        arrival (exactly what fetching on its own connection would do) and
        asks the publisher to publish everything delivered by then.  Returns
        False when the publisher cannot be driven — no demand hook (session
        publisher) or a never-arriving next tuple — in which case the caller
        falls back to the :data:`STARVED` protocol.
        """
        if self._live_demand is None:
            return False
        if self._live_probe is not None:
            arrival = self._live_probe()
            if arrival is not None and arrival > clock.now:
                if arrival == math.inf:
                    return False
                clock.advance_to(arrival)
        self._live_demand(clock.now)
        return True

    def publish(
        self, rows, now_ms: float, session: str | None, arrivals=None
    ) -> None:
        """Append a block of rows made available at virtual time ``now_ms``.

        ``arrivals`` (optional, one per row) records exact per-row fill
        times — publishers whose clock tracks the connection's arrival stamps
        (the prefetcher) use it so followers fall in at live-link pace rather
        than block-end bursts.
        """
        if not rows:
            return
        start = len(self.rows)
        self.rows.extend(rows)
        if arrivals is None:
            self._fill_times.extend([now_ms] * len(rows))
        else:
            self._fill_times.extend(arrivals)
        self.blocks.append(ExtentBlock(start, len(self.rows), now_ms, session))

    def fill_time_at(self, index: int) -> float:
        return self._fill_times[index]

    def live_next_event(self, now_ms: float) -> float:
        """When a caught-up follower should next look at the live stream.

        Strictly greater than the publisher's own next event (its connection's
        next arrival, or its clock if it is mid-CPU), so the frontier-first
        scheduler always runs the publisher first and the follower resumes to
        find the block published.  This is a scheduling hint only — clocks
        advance at actual fetches — so the epsilon never touches accounting.
        """
        target = now_ms
        if self._publisher_clock is not None:
            target = max(target, self._publisher_clock.now)
        if self._live_probe is not None:
            arrival = self._live_probe()
            if arrival == math.inf:
                return math.inf
            if arrival is not None:
                target = max(target, arrival)
        return math.nextafter(target, math.inf)


class StreamFollowerFeed:
    """A follower's streaming view over a :class:`PartialExtent`.

    The cached prefix is served at local CPU speed, but — in causal mode
    (server sessions, one shared timeline) — never before each row's fill
    time: consuming a row filled in the follower's future first advances the
    follower's clock to the fill time, which is exactly "falling in behind"
    the live stream.  Non-causal mode (single-query contexts, clocks
    restarting per query) skips the fill-time wait, mirroring the completed
    entry guard being session-scoped.
    """

    def __init__(
        self,
        extent: PartialExtent,
        clock,
        causal: bool = True,
        per_tuple_cpu_ms: float = CACHE_SERVE_CPU_MS,
    ) -> None:
        self._extent = extent
        self._clock = clock
        self._causal = causal
        self._per_tuple_cpu_ms = per_tuple_cpu_ms
        self._cursor = 0

    @property
    def schema(self) -> Schema:
        return self._extent.schema

    @property
    def extent(self) -> PartialExtent:
        return self._extent

    @property
    def cursor(self) -> int:
        """Rows consumed so far — the tail connection's resume offset."""
        return self._cursor

    def next_arrival(self) -> float | None:
        """When the next row can be consumed (side-effect free).

        ``None`` means end of stream (the extent completed and the prefix is
        drained).  A detached extent's tail is "ready now": the fetch itself
        performs the takeover.
        """
        extent = self._extent
        now = self._clock.now
        if self._cursor < extent.row_count:
            if not self._causal:
                return now
            fill = extent.fill_time_at(self._cursor)
            return fill if fill > now else now
        if extent.complete:
            return None
        if extent.is_live:
            return extent.live_next_event(now)
        return now

    def fetch(self):
        """Next row, ``None`` at end of stream, or a takeover sentinel.

        Returns :data:`NEED_TAIL` when the extent is detached (the follower
        must open its own tail connection from :attr:`cursor`) and
        :data:`STARVED` when the live publisher has not yet published the
        next block.  A caught-up follower of a demand-pumping publisher (the
        prefetcher) first drives the stream itself — fetch is the blocking
        "next row" call, so waiting for the live connection's next arrival
        here mirrors what its own connection would do — and only starves when
        the publisher cannot be driven.
        """
        extent = self._extent
        if self._cursor >= extent.row_count and extent.is_live and self._causal:
            extent.demand_live(self._clock)
        if self._cursor < extent.row_count:
            row = extent.rows[self._cursor]
            if self._causal:
                fill = extent.fill_time_at(self._cursor)
                if fill > self._clock.now:
                    self._clock.advance_to(fill)
            self._cursor += 1
            self._clock.consume_cpu(self._per_tuple_cpu_ms)
            return row.with_arrival(self._clock.now)
        if extent.complete:
            return None
        if extent.is_live:
            return STARVED
        return NEED_TAIL


class SourceCache:
    """Caches complete source extents keyed by source name.

    Parameters
    ----------
    max_age_ms:
        Entries older than this (in virtual time) are treated as stale and
        refetched; ``None`` disables expiry.
    max_entries:
        Upper bound on cached sources; the oldest entry is evicted first.
    """

    def __init__(self, max_age_ms: float | None = None, max_entries: int = 64) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_age_ms = max_age_ms
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: dict[str, CacheEntry] = {}
        self._streams: dict[str, PartialExtent] = {}
        self._per_source: dict[str, SourceCacheCounters] = {}

    # -- lookup -------------------------------------------------------------------

    def lookup(
        self, source_name: str, now_ms: float, session: str | None = None
    ) -> CacheEntry | None:
        """Return a fresh entry for ``source_name`` or record a miss.

        When the lookup names a ``session`` (server mode, where all clocks
        share one timeline), an entry filled at a virtual time beyond
        ``now_ms`` is invisible to it — another session running ahead
        deposited it "in the future".  The entry is kept; it becomes visible
        once the looking session's clock passes the fill time.  Lookups
        without a session (single-query contexts, whose clocks restart at
        zero per query) skip the guard: their fill times are not comparable
        across queries.
        """
        entry = self._entries.get(source_name)
        if entry is None:
            self.stats.misses += 1
            return None
        if session is not None and entry.filled_at_ms > now_ms:
            self.stats.misses += 1
            self.stats.not_yet_visible += 1
            return None
        if self.max_age_ms is not None and now_ms - entry.filled_at_ms > self.max_age_ms:
            self.stats.misses += 1
            self.invalidate(source_name)
            return None
        self.stats.hits += 1
        counters = self.source_counters(source_name)
        counters.hits += 1
        if entry.filled_by is not None and entry.filled_by != session:
            self.stats.cross_session_hits += 1
            counters.cross_session_hits += 1
        return entry

    def peek(
        self, source_name: str, now_ms: float, session: str | None = None
    ) -> CacheEntry | None:
        """Visibility check with :meth:`lookup` semantics but *no* effects.

        No counters move and stale entries are not invalidated, so operators
        (and the prefetcher's decision hook, which must stay effect-free for
        the ``step-effect`` analyzer rule) may probe on every call.
        """
        entry = self._entries.get(source_name)
        if entry is None:
            return None
        if session is not None and entry.filled_at_ms > now_ms:
            return None
        if self.max_age_ms is not None and now_ms - entry.filled_at_ms > self.max_age_ms:
            return None
        return entry

    def source_counters(self, source_name: str) -> SourceCacheCounters:
        """Per-source hit counters (created on first touch)."""
        counters = self._per_source.get(source_name)
        if counters is None:
            counters = self._per_source[source_name] = SourceCacheCounters()
        return counters

    @property
    def per_source_counters(self) -> dict[str, SourceCacheCounters]:
        return dict(self._per_source)

    def __contains__(self, source_name: str) -> bool:
        return source_name in self._entries

    @property
    def cached_sources(self) -> list[str]:
        return sorted(self._entries)

    # -- partial-extent streaming ---------------------------------------------------

    def begin_stream(
        self,
        source_name: str,
        schema: Schema,
        now_ms: float,
        session: str | None,
        clock,
        probe,
        demand=None,
    ) -> PartialExtent | None:
        """Register the caller as ``source_name``'s streaming publisher.

        Refused (``None``) when a completed entry already exists — even one
        the caller cannot see yet, matching the completion-path rule that
        never refills an existing entry — or when another reader is already
        publishing this source.  ``demand`` is forwarded to
        :meth:`PartialExtent.attach_publisher` (prefetch streams only).
        """
        if source_name in self._entries or source_name in self._streams:
            return None
        extent = PartialExtent(source_name, schema, now_ms, session)
        extent.attach_publisher(session, clock, probe, demand=demand)
        self._streams[source_name] = extent
        return extent

    def attach_follower(
        self, source_name: str, clock, session: str | None
    ) -> StreamFollowerFeed | None:
        """Follow an in-progress (or detached) extent; ``None`` if not streaming.

        The feed is causal — rows wait for their fill times — only when the
        follower names a session, i.e. shares the publisher's timeline;
        single-query contexts restart their clocks per query, so (exactly as
        in :meth:`lookup`) fill times are not comparable and the prefix is
        served immediately.
        """
        extent = self._streams.get(source_name)
        if extent is None:
            return None
        self.stats.partial_hits += 1
        self.source_counters(source_name).partial_hits += 1
        return StreamFollowerFeed(extent, clock, causal=session is not None)

    def stream(self, source_name: str) -> PartialExtent | None:
        """The in-progress extent for ``source_name`` (effect-free)."""
        return self._streams.get(source_name)

    def streaming(self, source_name: str) -> bool:
        return source_name in self._streams

    def adopt_stream(self, extent: PartialExtent, session: str | None, clock, probe) -> bool:
        """Take over publishing a detached extent's tail.

        Returns ``False`` when the extent is no longer registered (dropped by
        revocation or replaced) or still has a live publisher (a starved
        follower defecting) — the caller then streams privately and must not
        publish.
        """
        if self._streams.get(extent.source_name) is not extent or extent.is_live:
            return False
        extent.attach_publisher(session, clock, probe)
        return True

    def detach_stream(self, extent: PartialExtent) -> None:
        """Publisher closing early: keep the prefix for later readers.

        Must be called *before* the publisher releases its connection slot,
        so a queued reader admitted into the freed slot finds the prefix
        already published rather than re-fetching from row zero.
        """
        extent.detach()
        if extent.row_count == 0 and self._streams.get(extent.source_name) is extent:
            # Nothing published; an empty registered stream would only block
            # the next reader from becoming publisher.
            del self._streams[extent.source_name]

    def complete_stream(
        self, extent: PartialExtent, now_ms: float, session: str | None
    ) -> CacheEntry:
        """Publisher drained the source: promote the extent to a full entry."""
        extent.complete = True
        extent.detach()
        if self._streams.get(extent.source_name) is extent:
            del self._streams[extent.source_name]
        return self.fill(extent.source_name, extent.schema, extent.rows, now_ms, session)

    def drop_stream(self, extent: PartialExtent) -> None:
        """Forget a partial extent (prefetch revocation / invalidation).

        Attached followers keep the rows they already consumed; their next
        starved fetch returns :data:`NEED_TAIL` and they fall back to their
        own connection.
        """
        extent.dropped = True
        extent.detach()
        if self._streams.get(extent.source_name) is extent:
            del self._streams[extent.source_name]
            self.stats.invalidations += 1

    # -- filling -------------------------------------------------------------------

    def fill(
        self,
        source_name: str,
        schema: Schema,
        rows: list[Row],
        now_ms: float,
        session: str | None = None,
        source: DataSource | None = None,
    ) -> CacheEntry:
        """Store a complete source extent (replacing any prior entry).

        With ``source`` the entry is a view of that source's static export and
        ``rows`` its stored rows, aliased; otherwise the list is copied.
        """
        entry = CacheEntry(
            source_name, schema, list(rows) if source is None else rows, now_ms, session, source
        )
        self._entries[source_name] = entry
        self.stats.fills += 1
        self._evict_if_needed()
        return entry

    def _evict_if_needed(self) -> None:
        while len(self._entries) > self.max_entries:
            oldest = min(self._entries.values(), key=lambda e: e.filled_at_ms)
            self.invalidate(oldest.source_name)

    # -- invalidation -----------------------------------------------------------------

    def invalidate(self, source_name: str) -> None:
        """Drop one cached source, completed or streaming (no error if absent)."""
        if self._entries.pop(source_name, None) is not None:
            self.stats.invalidations += 1
        stream = self._streams.get(source_name)
        if stream is not None:
            self.drop_stream(stream)

    def clear(self) -> None:
        """Drop everything."""
        for name in list(self._entries):
            self.invalidate(name)
        for name in list(self._streams):
            self.invalidate(name)


class CachingScanFeed:
    """Streaming view over a cache entry with the wrapper interface shape.

    Scans served from the cache still charge a small per-tuple CPU cost but
    no network latency, which is what makes cached re-reads cheap.
    """

    def __init__(
        self,
        entry: CacheEntry,
        clock,
        per_tuple_cpu_ms: float = CACHE_SERVE_CPU_MS,
        encoded_columns: bool = True,
    ) -> None:
        self._entry = entry
        self._clock = clock
        self._per_tuple_cpu_ms = per_tuple_cpu_ms
        self._encoded_columns = encoded_columns
        self._cursor = 0

    @property
    def schema(self) -> Schema:
        return self._entry.schema

    @property
    def columnar(self) -> bool:
        """Whether :meth:`fetch_columns` can serve (the entry views a source)."""
        return self._entry.source is not None

    @property
    def exhausted(self) -> bool:
        return self._cursor >= self._entry.cardinality

    def next_arrival(self) -> float | None:
        """Cached data is always ready 'now'."""
        if self.exhausted:
            return None
        return self._clock.now

    def fetch(self) -> Row | None:
        if self.exhausted:
            return None
        values = self._entry.rows[self._cursor].values
        self._cursor += 1
        self._clock.consume_cpu(self._per_tuple_cpu_ms)
        # repro: allow[hot-path-row] the per-tuple serve boxes its one tuple (a declared boundary)
        return Row.make(self._entry.schema, values, self._clock.now)

    def fetch_columns(
        self, max_rows: int, arrival_bound: float | None = None
    ) -> tuple[list, list[float]] | None:
        """Columnar bulk serve: ``(columns, arrival_stamps)`` or ``None``.

        The rows, stamps and clock charges of ``max_rows`` :meth:`fetch` calls,
        each preceded by a ``next_arrival() < arrival_bound`` check — charged
        in bulk and sliced from the source's export, so no row is boxed.
        """
        start = self._cursor
        count = min(max_rows, self._entry.cardinality - start)
        # consume_cpu_run accumulates by sequential binary addition, as the
        # per-tuple consume_cpu calls do — never count * cpu, sum() or fsum.
        stamps = self._clock.consume_cpu_run(self._per_tuple_cpu_ms, count, arrival_bound)
        if not stamps:
            return None
        self._cursor = stop = start + len(stamps)
        return self._entry.source.column_span(start, stop, self._encoded_columns), stamps
