"""Plan-aware speculative prefetching under a revocable broker lease.

The server sees every submitted plan before it runs, so it knows which
sources the near-future workload will scan.  :class:`PlanAwarePrefetcher`
watches ``submit``/``submit_plan`` traffic, scores sources by how often they
appear times how many bytes a scan of them would move, and *warms* the
hottest ones ahead of demand: it opens its own connection — only when the
source has a spare slot — and publishes the stream block by block as a
partial extent in the shared :class:`~repro.network.cache.SourceCache`.
Sessions that scan a warmed source attach as followers (prefix at local CPU
speed, live tail shared with the prefetch stream) instead of queueing for a
connection slot of their own.

Everything the prefetcher caches is charged to one **speculative broker
lease**: granted only from capacity that is free at acquisition time (the
broker never revokes real work to make room for speculation, and the grant
may be zero), floored at zero, and victimized *first* when any query needs
memory.  For the same reason the lease is never grown by renegotiation —
``resize`` would revoke query leases to feed speculation.  On revocation the
prefetcher drops warmed data — sources that never served a hit first — until
its residency fits the shrunken lease, keeping the broker's
``used == sum(resident_bytes)`` invariant exact at every revocation point.

Determinism: the prefetcher runs on its own *unregistered*
:class:`~repro.network.simclock.SimClock` started at the server's causal
frontier, so its activity never moves the frontier or the makespan; the
scheduler calls :meth:`advance` immediately before each session step with
that session's next event time as the horizon, so every block that arrives
before any session's next observable moment is published — and stamped —
first.  Virtual times and admission order alone decide the interleaving,
exactly as without the prefetcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.stats import PrefetchSummary
from repro.network.simclock import SimClock
from repro.network.wrapper import Wrapper
from repro.storage.memory import MemoryBudget, MemoryPool

#: Rows fetched and published per prefetch block (matches the scan block size
#: closely enough that follower wait patterns look like a second reader's).
PREFETCH_BLOCK_ROWS = 64

#: Session label stamped on prefetch fills; distinct from every query session
#: id, so prefetched entries always count as cross-session hits.
PREFETCH_SESSION = "prefetch"

#: A source must appear at least this many times across observed plans before
#: speculation spends a connection slot on it.
MIN_APPEARANCES = 2


@dataclass
class PrefetchRecord:
    """One source the prefetcher decided to warm (or deliberately skipped)."""

    source_name: str
    #: streaming | complete | partial | dropped | skipped
    state: str = "streaming"
    bytes_fetched: int = 0
    #: Bytes still charged to the speculative lease for this source.
    resident_bytes: int = 0
    #: Cache hits (full + partial) the source had *before* warming started;
    #: any growth past this baseline means the prefetched data was used.
    baseline_hits: int = 0
    extent: object | None = None


class PlanAwarePrefetcher:
    """Warms the hottest observed sources within spare slots and free memory.

    Parameters
    ----------
    server:
        The owning :class:`~repro.server.scheduler.QueryServer`; supplies the
        catalog, the shared cache, the broker, and the causal frontier.
    budget_bytes:
        Speculative lease size to request (the grant may be smaller — down
        to zero — depending on free broker capacity at acquisition time).
    """

    def __init__(
        self,
        server,
        budget_bytes: int,
        block_rows: int = PREFETCH_BLOCK_ROWS,
        min_appearances: int = MIN_APPEARANCES,
    ) -> None:
        self.server = server
        self.catalog = server.catalog
        self.cache = server.source_cache
        self.budget_bytes = int(budget_bytes)
        self.block_rows = block_rows
        self.min_appearances = min_appearances
        self._counts: dict[str, int] = {}
        self._est_bytes: dict[str, float] = {}
        self._records: dict[str, PrefetchRecord] = {}
        self._pool = MemoryPool(name=f"{server.name}-prefetch", broker=server.broker)
        self._budget: MemoryBudget | None = None
        self._clock: SimClock | None = None
        self._wrapper: Wrapper | None = None
        self._extent = None
        self._active: PrefetchRecord | None = None
        self._unit_bytes = 0
        self.blocks_published = 0
        self.bytes_fetched = 0

    # -- plan observation ---------------------------------------------------------------

    def observe_spec(self, spec) -> None:
        """Count source appearances in one submitted operator tree."""
        for node in spec.walk():
            name = node.params.get("source")
            if not name:
                continue
            self._counts[name] = self._counts.get(name, 0) + 1
            if name not in self._est_bytes:
                source = self.catalog.source(name)
                row_bytes = source.exported_schema.encoded_row_size
                self._est_bytes[name] = float(source.cardinality * row_bytes)

    def observe_plan(self, plan) -> None:
        """Count source appearances across every fragment of a query plan."""
        for fragment in plan.fragments:
            self.observe_spec(fragment.root)

    # -- the decision hook (must stay effect-free) -------------------------------------

    def prefetch_decision(self, now_ms: float) -> str | None:
        """The hottest source worth warming at ``now_ms``, or ``None``.

        Hotness is appearance count times estimated transfer bytes.  A source
        qualifies only when it appeared in at least :attr:`min_appearances`
        observed plans, is neither cached nor already streaming, has a spare
        connection slot right now, and the speculative lease has headroom.

        This hook is deliberately side-effect free — no counters move, no
        clock advances, nothing is opened — so the scheduler may probe it on
        every quantum (``tests/test_speculative.py`` holds it to that).
        """
        if self._wrapper is not None:
            return None
        budget = self._budget
        if budget is not None and budget.available_bytes == 0:
            return None
        best: str | None = None
        best_score = 0.0
        for name in sorted(self._counts):
            if self._counts[name] < self.min_appearances:
                continue
            if name in self._records:
                continue
            if name in self.cache or self.cache.streaming(name):
                continue
            source = self.catalog.source(name)
            if source.profile.unavailable:
                continue
            free = source.free_slots(now_ms)
            if free is not None and free <= 0:
                continue
            score = self._counts[name] * self._est_bytes.get(name, 0.0)
            if best is None or score > best_score:
                best, best_score = name, score
        return best

    # -- driving ------------------------------------------------------------------------

    def advance(self, horizon_ms: float) -> None:
        """Publish every prefetch block arriving strictly before ``horizon_ms``.

        Called by the scheduler immediately before stepping the session whose
        next event is ``horizon_ms``: anything the prefetch stream would have
        delivered by then is in the cache — with exact arrival-time fill
        stamps — before the session can observe the source layer.
        """
        while True:
            if self._wrapper is None and not self._open_next():
                return
            if not self._pump(horizon_ms):
                return

    def _open_time(self) -> float:
        """Where on the timeline the next stream would open."""
        at = self.server.clock.frontier
        if self._clock is not None and self._clock.now > at:
            at = self._clock.now
        return at

    def _ensure_lease(self) -> bool:
        """Acquire the speculative lease lazily; True when it has headroom.

        The lease is taken once, from free capacity only, and never resized
        upward — growth renegotiation would revoke query leases to feed
        speculation, which the broker's courtesy rules forbid.
        """
        if self._budget is None:
            budget = self._pool.grant(
                "prefetch", self.budget_bytes, speculative=True
            )
            budget.on_revoke = self._on_revoke
            self._budget = budget
        limit = self._budget.limit_bytes
        return limit is None or self._budget.available_bytes > 0

    def _open_next(self) -> bool:
        """Open a prefetch stream on the current best candidate, if any."""
        open_at = self._open_time()
        name = self.prefetch_decision(open_at)
        if name is None:
            return False
        if not self._ensure_lease():
            return False
        source = self.catalog.source(name)
        if self._clock is None:
            self._clock = SimClock(start_ms=open_at)
        else:
            self._clock.advance_to(open_at)
        wrapper = Wrapper(source, self._clock, timeout_ms=None)
        wrapper.open()
        extent = self.cache.begin_stream(
            name,
            source.exported_schema,
            self._clock.now,
            PREFETCH_SESSION,
            self._clock,
            wrapper.peek_next_arrival,
            demand=self._demand,
        )
        if extent is None:
            # Raced with a session publisher or a completed entry between the
            # decision and the open; never reconsider this source.
            wrapper.close()
            self._records[name] = PrefetchRecord(name, state="skipped")
            return True
        counters = self.cache.source_counters(name)
        record = PrefetchRecord(
            name,
            baseline_hits=counters.hits + counters.partial_hits,
            extent=extent,
        )
        self._records[name] = record
        self._wrapper = wrapper
        self._extent = extent
        self._active = record
        self._unit_bytes = source.exported_schema.encoded_row_size
        return True

    def _demand(self, now_ms: float) -> None:
        """A caught-up follower at ``now_ms`` drives the live stream itself.

        Publishes every row the prefetch connection has delivered by
        ``now_ms`` (the bound is nudged one ulp so a row arriving exactly
        *at* the follower's clock is included — the connection delivered it
        by then).  Unlike sessions, the prefetcher has no unpublished
        fill-time unknowns: its clock tracks the connection's arrival stamps,
        so synchronous pumping is causally exact.
        """
        if self._wrapper is not None:
            self._pump(math.nextafter(now_ms, math.inf))

    def _pump(self, horizon_ms: float) -> bool:
        """Stream blocks until the horizon; True when another source may open."""
        wrapper = self._wrapper
        while True:
            rows = wrapper.fetch_batch(self.block_rows, arrival_bound=horizon_ms)
            if not rows:
                if wrapper.exhausted:
                    self._finish_stream()
                    return True
                arrival = wrapper.peek_next_arrival()
                if arrival is not None and arrival < horizon_ms:
                    # In range but undeliverable: the next tuple is the
                    # source's mid-transfer failure point.  Keep the prefix.
                    self._abandon_stream()
                    return True
                return False
            cost = len(rows) * self._unit_bytes
            if not self._budget.try_reserve(cost):
                # Lease headroom exhausted: keep the published prefix, free
                # the slot, and stop speculating until something is released.
                self._abandon_stream()
                return False
            record = self._active
            record.resident_bytes += cost
            record.bytes_fetched += cost
            self.bytes_fetched += cost
            # Per-row arrival stamps: followers fall in at live-link pace
            # instead of seeing the whole block appear at its last arrival.
            self._extent.publish(
                rows,
                self._clock.now,
                PREFETCH_SESSION,
                arrivals=[row.arrival for row in rows],
            )
            self.blocks_published += 1

    def _finish_stream(self) -> None:
        """Source drained: promote the extent to a completed cache entry."""
        self.cache.complete_stream(
            self._extent, self._wrapper.source, self._clock.now, PREFETCH_SESSION
        )
        self._wrapper.close()
        self._active.state = "complete"
        self._wrapper = self._extent = self._active = None

    def _abandon_stream(self) -> None:
        """Stop mid-stream: detach the prefix, then release the slot.

        Detach-before-close is the early-close ordering rule: a queued reader
        admitted into the freed slot must find the prefix already published.
        """
        self.cache.detach_stream(self._extent)
        self._wrapper.close()
        self._active.state = "partial"
        self._wrapper = self._extent = self._active = None

    def quiesce(self) -> None:
        """End of the scheduler run: free the live connection slot, keep data."""
        if self._wrapper is not None:
            self._abandon_stream()

    # -- revocation ---------------------------------------------------------------------

    def _used_since_warm(self, record: PrefetchRecord) -> bool:
        counters = self.cache.source_counters(record.source_name)
        return counters.hits + counters.partial_hits > record.baseline_hits

    def _on_revoke(self, budget: MemoryBudget) -> None:
        """Drop warmed data — never-used sources first — to fit the new limit.

        Keeps the revocation contract (it never raises): dropping and
        abandoning streams only release bytes and slots.
        """
        limit = budget.limit_bytes or 0
        victims = sorted(
            (r for r in self._records.values() if r.resident_bytes > 0),
            key=self._used_since_warm,
        )
        for record in victims:
            if budget.used_bytes <= limit:
                break
            self._drop(record)
        if self._wrapper is not None and budget.available_bytes <= 0:
            # The lease was drained under it: a stream that can never
            # reserve another block would only trap followers (they wait on
            # its next arrival, then defect).  Keep the prefix, free the
            # slot now.
            self._abandon_stream()

    def _drop(self, record: PrefetchRecord) -> None:
        """Forget one warmed source and return its bytes to the lease."""
        if self._active is record:
            self.cache.drop_stream(self._extent)
            self._wrapper.close()
            self._wrapper = self._extent = self._active = None
        elif record.state == "partial":
            self.cache.drop_stream(record.extent)
        elif record.state == "complete":
            self.cache.invalidate(record.source_name)
        self._budget.release(record.resident_bytes)
        record.resident_bytes = 0
        record.state = "dropped"

    # -- reporting ----------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Live bytes charged to the speculative lease (invariant checks)."""
        return self._budget.used_bytes if self._budget is not None else 0

    def summary(self) -> PrefetchSummary:
        records = [r for r in self._records.values() if r.state != "skipped"]
        used = sum(r.bytes_fetched for r in records if self._used_since_warm(r))
        budget = self._budget
        return PrefetchSummary(
            sources_warmed=len(records),
            sources_completed=sum(1 for r in records if r.state == "complete"),
            sources_dropped=sum(1 for r in records if r.state == "dropped"),
            blocks_published=self.blocks_published,
            bytes_fetched=self.bytes_fetched,
            bytes_used=used,
            bytes_wasted=self.bytes_fetched - used,
            lease_bytes=(budget.limit_bytes or 0) if budget is not None else 0,
            resident_bytes=budget.used_bytes if budget is not None else 0,
            revocations=budget.revocations if budget is not None else 0,
        )
