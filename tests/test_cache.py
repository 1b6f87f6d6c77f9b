"""Unit and integration tests for source-data caching (repro.network.cache)."""

import pytest

from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.scan import WrapperScan
from repro.network.cache import CachingScanFeed, SourceCache
from repro.network.profiles import wide_area
from repro.network.simclock import SimClock
from repro.core.system import Tukwila
from repro.network.source import DataSource

from helpers import iterate, make_relation, next_row


def source(name: str, count: int = 5) -> DataSource:
    """A source named ``name`` exporting ``count`` rows ``(i, "v<i>")``."""
    return DataSource(
        name, make_relation("s", ["k:int", "v:str"], [(i, f"v{i}") for i in range(count)])
    )


class TestSourceCache:
    def test_miss_then_fill_then_hit(self):
        cache = SourceCache()
        assert cache.lookup("src", now_ms=0.0) is None
        cache.fill(source("src"), now_ms=10.0)
        entry = cache.lookup("src", now_ms=20.0)
        assert entry is not None
        assert entry.cardinality == 5
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.fills == 1
        assert "src" in cache

    def test_eviction_keeps_newest(self):
        cache = SourceCache(max_entries=2)
        cache.fill(source("a"), now_ms=1.0)
        cache.fill(source("b"), now_ms=2.0)
        cache.fill(source("c"), now_ms=3.0)
        assert [name in cache for name in "abc"] == [False, True, True]

    def test_invalidate_and_clear(self):
        cache = SourceCache()
        cache.fill(source("a"), now_ms=0.0)
        cache.invalidate("missing")  # no error
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.stats.invalidations == 1

    def test_hit_rate(self):
        cache = SourceCache()
        cache.lookup("a", 0.0)
        cache.fill(source("a"), now_ms=0.0)
        cache.lookup("a", 1.0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            SourceCache(max_entries=0)


class TestCachingScanFeed:
    def test_streams_cached_rows_at_local_speed(self):
        cache = SourceCache()
        entry = cache.fill(source("src", 4), now_ms=0.0)
        clock = SimClock()
        feed = CachingScanFeed(entry, clock)
        fetched = []
        while not feed.exhausted:
            assert feed.next_arrival() == clock.now
            columns, stamps = feed.fetch()  # a one-row span, stamped on serving
            assert stamps == [clock.now]
            fetched.append(tuple(column[0] for column in columns))
        assert fetched == [(i, f"v{i}") for i in range(4)]
        assert feed.fetch() is None
        assert clock.now < 1.0  # no network latency was charged


class TestWrapperScanCaching:
    @pytest.fixture
    def cached_context(self, joinable_catalog):
        return ExecutionContext(
            joinable_catalog, config=EngineConfig(enable_source_caching=True)
        )

    def test_second_scan_served_from_cache(self, cached_context):
        first = WrapperScan("scan1", cached_context, "ord")
        first.open()
        assert len(list(iterate(first))) == 3
        first.close()
        assert "ord" in cached_context.source_cache

        second = WrapperScan("scan2", cached_context, "ord")
        second.open()
        assert second.served_from_cache
        assert len(list(iterate(second))) == 3
        # Only the first scan opened a real connection.
        assert cached_context.catalog.source("ord").stats.connections_opened == 1

    def test_partial_read_does_not_fill_cache(self, cached_context):
        scan = WrapperScan("scan1", cached_context, "ord")
        scan.open()
        next_row(scan)
        scan.close()
        assert "ord" not in cached_context.source_cache

    def test_caching_disabled_by_default(self, context):
        scan = WrapperScan("scan1", context, "ord")
        scan.open()
        list(iterate(scan))
        scan.close()
        assert context.source_cache is None


class TestSystemLevelCaching:
    def test_repeated_query_is_faster_with_shared_cache(self, orders_and_items):
        orders, items = orders_and_items
        system = Tukwila(engine_config=EngineConfig(enable_source_caching=True))
        system.register_source(DataSource("ord", orders, wide_area()))
        system.register_source(DataSource("item", items, wide_area()))
        sql = "select * from ord, item where ord.o_id = item.i_order"
        cold = system.execute(sql, name="cold")
        warm = system.execute(sql, name="warm")
        assert cold.succeeded and warm.succeeded
        assert cold.cardinality == warm.cardinality
        assert warm.total_time_ms < cold.total_time_ms / 2
        assert system.source_cache.stats.hits >= 2
