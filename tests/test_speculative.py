"""The speculative source layer: partial-extent streaming and plan-aware prefetch.

Covers the PR-10 invariants:

* **causality** — a causal follower never observes a block at a virtual time
  before the block's fill time (property-tested over random fill/consume
  interleavings), and a cached prefix plus a live tail always reassembles the
  exact source extent;
* **stream sharing** — a second scan of an in-progress source attaches as a
  follower (prefix at CPU speed, shared live tail) instead of queueing for a
  connection slot, and a scan closed early republishes its partial extent
  before releasing the slot;
* **speculative leases** — the prefetcher's broker lease is granted only
  from free capacity, revoked ahead of every query lease, and keeps
  ``broker.used == sum(resident_bytes)`` exact through drops;
* **plan-aware prefetch** — observed plans drive warming decisions (hotness
  threshold, spare slots only), and warmed sources serve later sessions at
  local speed;
* **the pipeline** — in the eight-session mix, sessions arriving mid-stream
  reach their first tuple at least 2x sooner than under completion-based
  admission, with the same results and little prefetch wasted.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_operator_tree
from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.scan import WrapperScan
from repro.network.cache import (
    NEED_TAIL,
    STARVED,
    PartialExtent,
    SourceCache,
    StreamFollowerFeed,
)
from repro.network.profiles import NetworkProfile
from repro.network.simclock import SimClock
from repro.network.source import DataSource
from repro.plan.physical import wrapper_scan
from repro.server import MemoryBroker, QueryServer, SessionStatus
from repro.server.prefetch import PlanAwarePrefetcher
from repro.storage.memory import MemoryPool
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import (
    MIX_SESSIONS,
    examples,
    iterate,
    make_relation,
    mix_deployment,
    mix_memory_request,
    mix_session_spec,
    multiset,
    next_row,
    run_mix,
)
from invariants import pure_call

SCHEMA = Schema.of("s.k:int", "s.v:str")

#: Slow enough that a second reader arrives mid-stream of the first.
SLOW = NetworkProfile(name="slow", initial_latency_ms=40.0, bandwidth_kbps=64.0)

SPECULATIVE = EngineConfig(speculative_sources=True)


def rows(count: int) -> list[Row]:
    return [Row(SCHEMA, (i, f"v{i}")) for i in range(count)]


def source_catalog(
    count: int = 100, max_concurrent: int | None = None
) -> DataSourceCatalog:
    relation = make_relation(
        "src", ["k:int", "v:str"], [(i, f"v{i}") for i in range(count)]
    )
    catalog = DataSourceCatalog()
    catalog.register_source(
        DataSource("src", relation, SLOW, max_concurrent=max_concurrent)
    )
    return catalog


def decide(server: QueryServer, now_ms: float) -> str | None:
    """The prefetcher's decision at ``now_ms``, held to the probe contract:
    asked twice, it answers the same and moves no source, cache, broker or
    prefetch counter."""
    catalog, cache = server.catalog, server.source_cache

    def observe():
        return (
            [astuple(catalog.source(name).stats) for name in catalog.source_names],
            astuple(cache.stats),
            server.broker.used_bytes,
            server.broker.granted_bytes,
            astuple(server.prefetcher.summary()),
        )

    return pure_call(lambda: server.prefetcher.prefetch_decision(now_ms), observe)


def speculative_context(
    catalog: DataSourceCatalog, cache: SourceCache, session: str
) -> ExecutionContext:
    return ExecutionContext(
        catalog,
        config=SPECULATIVE,
        source_cache=cache,
        session_id=session,
        query_name=session,
    )


# -- causality properties ------------------------------------------------------------


class TestPartialExtentCausality:
    @settings(max_examples=examples(120), deadline=None)
    @given(st.data())
    def test_follower_never_observes_a_future_fill(self, data):
        """Random fill/consume interleavings: observation time >= fill time."""
        total = data.draw(st.integers(min_value=5, max_value=40), label="rows")
        source_rows = rows(total)
        publisher_clock = SimClock()
        extent = PartialExtent("src", SCHEMA, 0.0, "publisher")
        extent.attach_publisher("publisher", publisher_clock, lambda: None)
        follower_clock = SimClock()
        feed = StreamFollowerFeed(extent, follower_clock, causal=True)

        published = 0
        consumed: list[Row] = []
        ops = data.draw(
            st.lists(
                st.tuples(st.sampled_from(["publish", "consume"]), st.integers(1, 6)),
                max_size=40,
            ),
            label="ops",
        )
        for op, width in ops:
            if op == "publish" and published < total:
                gap = data.draw(st.floats(min_value=0.5, max_value=25.0))
                publisher_clock.advance_to(publisher_clock.now + gap)
                chunk = source_rows[published : published + width]
                extent.publish(chunk, publisher_clock.now, "publisher")
                published += len(chunk)
            else:
                for _ in range(width):
                    got = feed.fetch()
                    if got is STARVED:
                        # Caught up with the live stream: the follower's wait
                        # hint lands strictly after the publisher's position.
                        assert feed.next_arrival() > publisher_clock.now
                        break
                    assert got is not NEED_TAIL  # never while the stream is live
                    assert got is not None
                    index = len(consumed)
                    assert follower_clock.now >= extent.fill_time_at(index)
                    consumed.append(got)

        # Publisher drains the source and completes; the follower's remaining
        # reads (prefix then EOS) must reassemble the extent exactly.
        if published < total:
            publisher_clock.advance_to(publisher_clock.now + 1.0)
            extent.publish(source_rows[published:], publisher_clock.now, "publisher")
        extent.complete = True
        extent.detach()
        while True:
            got = feed.fetch()
            if got is None:
                break
            index = len(consumed)
            assert follower_clock.now >= extent.fill_time_at(index)
            consumed.append(got)
        assert [r.values for r in consumed] == [r.values for r in source_rows]

    @settings(max_examples=examples(30), deadline=None)
    @given(cut=st.integers(min_value=0, max_value=60))
    def test_prefix_plus_tail_reassembles_exact_extent(self, cut):
        """A reader that consumes a cached prefix and fetches the live tail
        (taking over a detached extent at any cut point) sees the same rows,
        in the same order, as a reader with its own full connection."""
        catalog = source_catalog(count=60)
        cache = SourceCache()
        publisher = WrapperScan(
            "pub", speculative_context(catalog, cache, "pub"), "src"
        )
        publisher.open()
        for _ in range(cut):
            assert next_row(publisher) is not None
        publisher.close()  # early close republishes the partial extent

        reader = WrapperScan(
            "reader", speculative_context(catalog, cache, "reader"), "src"
        )
        reader.open()
        got = [row.values for row in iterate(reader)]
        reader.close()
        expected = [row.values for row in rows(60)]
        assert got == expected


# -- stream sharing ------------------------------------------------------------------


class TestStreamSharing:
    def test_follower_attaches_instead_of_queueing(self):
        """With one connection slot, the late scan shares the first scan's
        stream: no queueing, both sessions finish together."""
        catalog = source_catalog(max_concurrent=1)
        server = QueryServer(catalog, engine_config=SPECULATIVE)
        first = server.submit(wrapper_scan("src"), "first")
        second = server.submit(wrapper_scan("src"), "second", arrival_ms=100.0)
        stats = server.run()
        assert first.status == second.status == SessionStatus.COMPLETED
        assert multiset(second.result) == multiset(first.result)
        assert catalog.source("src").stats.connections_queued == 0
        assert stats.partial_extent_hits >= 1
        assert stats.per_source["src"].partial_hits >= 1

    def test_follower_faster_than_completion_based_admission(self):
        """The late session's completion beats the queue-for-a-slot baseline."""
        completions = {}
        for speculative in (False, True):
            catalog = source_catalog(max_concurrent=1)
            config = EngineConfig(speculative_sources=speculative)
            server = QueryServer(catalog, engine_config=config)
            server.submit(wrapper_scan("src"), "first")
            late = server.submit(wrapper_scan("src"), "late", arrival_ms=100.0)
            server.run()
            completions[speculative] = late.summary.completed_at_ms
        assert completions[True] < completions[False] / 1.5

    def test_early_close_republishes_before_releasing_slot(self):
        """A scan abandoned mid-stream detaches its extent (prefix kept) before
        the slot frees, so the next reader resumes from the cached prefix."""
        catalog = source_catalog(count=50)
        cache = SourceCache()
        publisher = WrapperScan(
            "pub", speculative_context(catalog, cache, "pub"), "src"
        )
        publisher.open()
        for _ in range(20):
            next_row(publisher)
        publisher.close()
        extent = cache._streams.get("src")
        assert extent is not None and not extent.is_live
        assert extent.row_count == 20

        reader_context = speculative_context(catalog, cache, "reader")
        reader = WrapperScan("reader", reader_context, "src")
        reader.open()
        got = [row.values for row in iterate(reader)]
        reader.close()
        assert got == [row.values for row in rows(50)]
        # The reader adopted the detached extent, fetched only the tail, and
        # completed it into a full cache entry.
        assert cache.source_counters("src").partial_hits == 1
        assert "src" in cache
        assert reader.wrapper.stats.tuples_fetched == 30

    def test_speculative_off_is_plain_completion_admission(self):
        """Flag off: no streams are ever registered, scans collect and fill at
        completion exactly as before the speculative layer existed."""
        catalog = source_catalog(max_concurrent=1)
        server = QueryServer(catalog)  # default config: speculative off
        assert server.prefetcher is None
        server.submit(wrapper_scan("src"), "first")
        server.submit(wrapper_scan("src"), "second", arrival_ms=100.0)
        stats = server.run()
        assert stats.partial_extent_hits == 0
        assert server.source_cache._streams.get("src") is None
        assert catalog.source("src").stats.connections_queued == 1


# -- speculative broker leases -------------------------------------------------------


class TestSpeculativeLeases:
    def test_granted_only_from_free_capacity(self):
        broker = MemoryBroker(1024 * 1024)
        pool = MemoryPool(broker=broker)
        query = pool.grant("join", 900 * 1024)
        speculative = pool.grant("prefetch", 400 * 1024, speculative=True)
        # Only the free remainder was granted; nothing was revoked for it.
        assert speculative.limit_bytes == 1024 * 1024 - 900 * 1024
        assert query.limit_bytes == 900 * 1024
        assert broker.stats.revocations == 0
        assert broker.stats.speculative_leases_granted == 1

    def test_full_broker_grants_zero_without_revoking(self):
        broker = MemoryBroker(512 * 1024)
        pool = MemoryPool(broker=broker)
        pool.grant("join", 512 * 1024)
        speculative = pool.grant("prefetch", 64 * 1024, speculative=True)
        assert speculative.limit_bytes == 0
        assert broker.stats.revocations == 0

    def test_revoked_first_despite_smaller_headroom(self):
        broker = MemoryBroker(1024 * 1024)
        pool = MemoryPool(broker=broker)
        query = pool.grant("join", 800 * 1024)  # headroom 800K - 64K floor
        speculative = pool.grant("prefetch", 128 * 1024, speculative=True)
        assert speculative.limit_bytes == 128 * 1024
        # A new query lease larger than the free capacity plus the whole
        # speculative lease: speculation is stripped to zero *first*, and only
        # then does the (much larger) query headroom contribute the rest.
        newcomer = pool.grant("join2", 300 * 1024)
        assert newcomer.limit_bytes == 300 * 1024
        assert speculative.limit_bytes == 0
        assert query.limit_bytes < 800 * 1024
        records = broker.revocations
        assert len(records) == 2
        assert records[0].speculative and records[0].taken_bytes == 128 * 1024
        assert not records[1].speculative
        assert broker.stats.speculative_revocations == 1
        assert broker.stats.speculative_bytes_revoked == 128 * 1024

    def test_prefetcher_drops_to_fit_and_invariant_holds(self):
        """Revoking the speculative lease makes the prefetcher drop warmed
        data immediately; ``broker.used == sum(resident)`` at the hook."""
        catalog = source_catalog(count=80, max_concurrent=2)
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config, memory_capacity_bytes=1 << 20)
        observed = []

        def check(broker, record):
            observed.append(record)
            assert broker.used_bytes == sum(p.used_bytes for p in broker.pools)

        server.broker.on_revocation = check
        # Warm the source fully (two submissions cross the hotness threshold).
        server.submit(wrapper_scan("src"), "warm-1")
        server.submit(wrapper_scan("src"), "warm-2")
        server.run()
        prefetcher = server.prefetcher
        assert prefetcher.resident_bytes > 0
        assert "src" in server.source_cache
        # A query lease demanding the whole capacity victimizes speculation.
        pool = MemoryPool(name="pressure", broker=server.broker)
        pool.grant("big-join", 1 << 20)
        assert observed and observed[0].speculative
        assert prefetcher.resident_bytes == 0
        assert "src" not in server.source_cache
        assert prefetcher.summary().sources_dropped == 1


# -- plan-aware prefetch -------------------------------------------------------------


class TestPlanAwarePrefetch:
    def test_decision_is_effect_free(self, monkeypatch):
        """The decision is a probe: it opens nothing, and ``decide`` fails on a
        decision that opens the source it picks."""
        catalog = source_catalog(max_concurrent=2)
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config)
        for _ in range(2):
            server.prefetcher.observe_spec(wrapper_scan("src"))
        assert decide(server, 0.0) == "src"
        assert catalog.source("src").stats.connections_opened == 0

        shipped = PlanAwarePrefetcher.prefetch_decision

        def opening(self, now_ms):
            choice = shipped(self, now_ms)
            if choice is not None:
                catalog.source(choice).open(at_ms=now_ms)
            return choice

        monkeypatch.setattr(PlanAwarePrefetcher, "prefetch_decision", opening)
        with pytest.raises(AssertionError, match="changed"):
            decide(server, 1.0)

    def test_decision_needs_min_appearances(self):
        catalog = source_catalog()
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config)
        prefetcher = server.prefetcher
        assert decide(server, 0.0) is None
        prefetcher.observe_spec(wrapper_scan("src"))
        assert decide(server, 0.0) is None
        prefetcher.observe_spec(wrapper_scan("src"))
        assert decide(server, 0.0) == "src"

    def test_decision_respects_spare_slots_and_cache_state(self):
        catalog = source_catalog(max_concurrent=1)
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config)
        prefetcher = server.prefetcher
        for _ in range(2):
            prefetcher.observe_spec(wrapper_scan("src"))
        source = catalog.source("src")
        connection = source.open(at_ms=0.0)  # the only slot, busy
        assert decide(server, 1.0) is None
        connection.close(at_ms=1.0)
        assert decide(server, 2.0) == "src"
        # A cached extent removes the source from consideration.
        server.source_cache.fill(source, now_ms=2.0)
        assert decide(server, 3.0) is None

    def test_warmed_source_serves_later_sessions(self):
        catalog = source_catalog(max_concurrent=2)
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config, memory_capacity_bytes=8 << 20)
        first = server.submit(wrapper_scan("src"), "first")
        second = server.submit(wrapper_scan("src"), "second", arrival_ms=150.0)
        stats = server.run()
        assert first.status == second.status == SessionStatus.COMPLETED
        assert multiset(first.result) == multiset(second.result)
        summary = stats.prefetch
        assert summary is not None
        assert summary.sources_warmed == 1
        assert summary.bytes_fetched > 0
        assert summary.bytes_wasted == 0
        assert summary.resident_bytes == server.prefetcher.resident_bytes
        assert stats.per_source["src"].partial_hits >= 1
        # The broker's live total includes the prefetched bytes.
        assert server.broker.used_bytes >= summary.resident_bytes

    def test_unused_prefetch_counts_as_wasted(self):
        catalog = source_catalog()
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config)
        prefetcher = server.prefetcher
        for _ in range(2):
            prefetcher.observe_spec(wrapper_scan("src"))
        prefetcher.advance(horizon_ms=10_000.0)
        prefetcher.quiesce()
        summary = prefetcher.summary()
        assert summary.bytes_fetched > 0
        assert summary.bytes_used == 0
        assert summary.bytes_wasted == summary.bytes_fetched

    def test_zero_budget_config_disables_prefetcher(self):
        catalog = source_catalog()
        server = QueryServer(
            catalog, engine_config=EngineConfig(speculative_sources=True)
        )
        assert server.prefetcher is None  # streaming on, prefetch off

    def test_standalone_prefetcher_requires_spec_traffic(self):
        catalog = source_catalog()
        config = EngineConfig(speculative_sources=True, prefetch_budget_bytes=1 << 20)
        server = QueryServer(catalog, engine_config=config)
        prefetcher = server.prefetcher
        assert isinstance(prefetcher, PlanAwarePrefetcher)
        prefetcher.advance(horizon_ms=10_000.0)
        assert prefetcher.summary().sources_warmed == 0


class TestPrefetchPipeline:
    """The workload the layer exists for: the eight-session mix with the
    first two sessions starting the streams and the other six arriving
    mid-stream (after publishing started, before any extent completed), on
    a broker that holds 3.5 sessions' join memory: room for the head
    sessions and the speculative lease, low enough that the late arrivals
    revoke.  Completion-based admission (the default) is the baseline."""

    CAPACITY_SESSIONS = 3.5

    #: Late-session time to first tuple at least this much better.
    TTFT_BAR = 2.0

    #: At most this fraction of the prefetched bytes may go unused.
    WASTE_CAP_FRACTION = 0.25

    @pytest.fixture(scope="class")
    def modes(self):
        deployment = mix_deployment()
        memory = mix_memory_request(deployment)
        alone = run_operator_tree(
            mix_session_spec(0, memory),
            deployment.catalog,
            result_name="calibrate",
            engine_config=EngineConfig(),
        )
        stagger = alone.completion_time_ms * 0.3
        arrivals = [0.0 if index < 2 else (index - 1) * stagger for index in range(MIX_SESSIONS)]
        speculative = EngineConfig(speculative_sources=True, prefetch_budget_bytes=memory)
        return {
            "baseline": run_mix(memory, self.CAPACITY_SESSIONS, arrivals, EngineConfig()),
            "speculative": run_mix(memory, self.CAPACITY_SESSIONS, arrivals, speculative),
        }

    @staticmethod
    def late_ttft(sessions) -> float:
        """Mean time from admission to first tuple over the sessions that
        arrived mid-stream."""
        values = [
            session.timeline.time_to_first - session.summary.submitted_at_ms
            for session in sessions
            if session.summary.submitted_at_ms > 0.0 and session.timeline.time_to_first is not None
        ]
        return sum(values) / len(values)

    def test_speculation_changes_when_never_what(self, modes):
        (_, baseline, _), (_, speculative, _) = modes["baseline"], modes["speculative"]
        for lhs, rhs in zip(speculative, baseline):
            assert lhs.status == rhs.status == SessionStatus.COMPLETED, lhs.session_id
            assert multiset(lhs.result) == multiset(rhs.result), lhs.session_id

    def test_prefetch_warms_a_source_and_late_sessions_follow(self, modes):
        stats, _, _ = modes["speculative"]
        prefetch = stats.prefetch
        assert prefetch is not None and prefetch.sources_warmed >= 1
        assert stats.partial_extent_hits >= 1
        assert prefetch.bytes_fetched > 0
        assert prefetch.bytes_wasted <= prefetch.bytes_fetched * self.WASTE_CAP_FRACTION

    def test_revocations_hold_the_invariant_and_take_the_speculative_lease_first(self, modes):
        """Residency (live hash tables plus the prefetcher's cache) equals the
        broker's usage after every revocation in both modes, and no query
        lease is revoked while the speculative lease still holds bytes."""
        _, _, speculative = modes["speculative"]
        assert speculative, "the mix was meant to force revocations"
        for mode, (_, _, revocations) in modes.items():
            for record, used, resident, prefetched in revocations:
                assert used == resident + prefetched, (mode, record.victim)
                assert record.speculative or prefetched == 0, (mode, record.victim)

    def test_late_sessions_reach_their_first_tuple_twice_as_fast(self, modes):
        (_, baseline, _), (_, speculative, _) = modes["baseline"], modes["speculative"]
        before, after = self.late_ttft(baseline), self.late_ttft(speculative)
        assert before / after >= self.TTFT_BAR, (before, after)
