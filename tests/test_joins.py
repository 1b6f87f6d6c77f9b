"""Unit tests for the join operators (nested loops, hybrid hash, dependent)."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.joins.dependent import DependentJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.joins.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import WrapperScan
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource
from repro.storage.memory import MB

from helpers import make_relation, multiset, reference_join


def expected_join(catalog):
    ord_rel = catalog.source("ord").relation
    item_rel = catalog.source("item").relation
    return reference_join(ord_rel, item_rel, "o_id", "i_order")


def scans(context):
    return (
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
    )


class TestNestedLoopsJoin:
    def test_matches_reference(self, joinable_catalog, context):
        left, right = scans(context)
        join = NestedLoopsJoin("nl", context, left, right, ["ord.o_id"], ["item.i_order"])
        join.open()
        rows = list(join.iterate())
        expected = expected_join(joinable_catalog)
        assert multiset(rows) == multiset(expected)

    def test_output_schema_concatenated(self, context):
        left, right = scans(context)
        join = NestedLoopsJoin("nl", context, left, right, ["ord.o_id"], ["item.i_order"])
        assert join.output_schema.names == (
            "ord.o_id", "ord.o_cust", "item.i_order", "item.i_sku", "item.i_qty"
        )

    def test_key_validation(self, context):
        left, right = scans(context)
        with pytest.raises(Exception):
            NestedLoopsJoin("nl", context, left, right, ["ord.o_id"], [])


class TestHybridHashJoin:
    def test_matches_reference_with_ample_memory(self, joinable_catalog, context):
        left, right = scans(context)
        join = HybridHashJoin(
            "hh", context, left, right, ["ord.o_id"], ["item.i_order"], memory_limit_bytes=10 * MB
        )
        join.open()
        rows = list(join.iterate())
        assert multiset(rows) == multiset(expected_join(joinable_catalog))

    def test_matches_reference_with_tiny_memory(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        left, right = (
            WrapperScan("scan_ord", context, "ord"),
            WrapperScan("scan_item", context, "item"),
        )
        # Budget fits roughly one tuple: every bucket spills.
        join = HybridHashJoin(
            "hh", context, left, right, ["ord.o_id"], ["item.i_order"],
            memory_limit_bytes=100, bucket_count=4,
        )
        join.open()
        rows = list(join.iterate())
        assert multiset(rows) == multiset(expected_join(joinable_catalog))
        assert context.disk.stats.tuples_written > 0
        assert context.stats.operator("hh").overflow_events > 0

    def test_first_output_waits_for_inner(self, tpcd_catalog):
        """The hybrid hash join cannot emit anything before the build side finishes."""
        context = ExecutionContext(tpcd_catalog)
        outer = WrapperScan("outer", context, "partsupp")
        inner = WrapperScan("inner", context, "part")
        join = HybridHashJoin(
            "hh", context, outer, inner, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )
        join.open()
        first = join.next()
        assert first is not None
        # The inner relation must be fully consumed before the first output.
        assert inner.wrapper.exhausted

    def test_releases_memory_on_close(self, joinable_catalog, context):
        left, right = scans(context)
        join = HybridHashJoin(
            "hh", context, left, right, ["ord.o_id"], ["item.i_order"], memory_limit_bytes=MB
        )
        join.open()
        list(join.iterate())
        join.close()
        assert context.memory_pool.granted_bytes == 0


class TestDependentJoin:
    @pytest.fixture
    def catalog_with_lookup(self, orders_and_items):
        orders, items = orders_and_items
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("ord", orders, lan()))
        catalog.register_source(DataSource("item", items, wide_area()))
        return catalog

    def test_matches_reference(self, catalog_with_lookup):
        context = ExecutionContext(catalog_with_lookup)
        left = WrapperScan("scan_ord", context, "ord")
        join = DependentJoin(
            "dj", context, left, "item", ["ord.o_id"], ["item.i_order"]
        )
        join.open()
        rows = list(join.iterate())
        expected = expected_join(catalog_with_lookup)
        assert multiset(rows) == multiset(expected)
        assert join.probes == 3  # one parameterized fetch per left tuple

    def test_each_probe_pays_source_latency(self, catalog_with_lookup):
        context = ExecutionContext(catalog_with_lookup)
        left = WrapperScan("scan_ord", context, "ord")
        join = DependentJoin("dj", context, left, "item", ["ord.o_id"], ["item.i_order"])
        join.open()
        list(join.iterate())
        # Three probes at >=145ms each dominate the tiny scan time.
        assert context.clock.now >= 3 * wide_area().initial_latency_ms

    def test_key_arity_checked(self, catalog_with_lookup):
        context = ExecutionContext(catalog_with_lookup)
        left = WrapperScan("scan_ord", context, "ord")
        with pytest.raises(Exception):
            DependentJoin("dj", context, left, "item", ["ord.o_id"], [])


class TestDependentJoinProbeCache:
    """The §8 caching extension: duplicate bind keys pay source latency once."""

    @pytest.fixture
    def dup_key_catalog(self):
        """Left input with heavily duplicated bind keys over a slow lookup source."""
        items = make_relation(
            "item",
            ["i_order:int", "i_sku:str"],
            [(i % 3, f"sku{i}") for i in range(12)],  # keys 0,1,2 repeated 4x
        )
        orders = make_relation(
            "ord", ["o_id:int", "o_cust:str"], [(0, "ada"), (1, "bob"), (5, "eve")]
        )
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("item", items, lan()))
        catalog.register_source(DataSource("ord", orders, wide_area()))
        return catalog

    def _run(self, catalog, probe_cache, batch_size=None, context=None):
        context = context or ExecutionContext(catalog)
        left = WrapperScan("scan_item", context, "item")
        join = DependentJoin(
            "dj", context, left, "ord", ["item.i_order"], ["ord.o_id"],
            probe_cache=probe_cache,
        )
        join.open()
        if batch_size is None:
            rows = list(join.iterate())
        else:
            rows = []
            while True:
                batch = join.next_batch(batch_size)
                if not batch:
                    break
                rows.extend(batch)
        join.close()
        return join, rows, context

    def test_duplicate_keys_probe_once(self, dup_key_catalog):
        join, rows, context = self._run(dup_key_catalog, probe_cache=True)
        # 12 left tuples but only 3 distinct bind keys (one of them empty).
        assert join.probes == 3
        assert join.cache_hits == 9
        assert context.stats.operator("dj").cache_hits == 9
        # key 0 and 1 match one order each (4 duplicates each); key 2 matches none.
        assert len(rows) == 8

    def test_memoized_probes_save_latency(self, dup_key_catalog):
        cached_join, cached_rows, cached_context = self._run(
            dup_key_catalog, probe_cache=True
        )
        uncached_join, uncached_rows, uncached_context = self._run(
            dup_key_catalog, probe_cache=False
        )
        assert multiset(cached_rows) == multiset(uncached_rows)
        assert uncached_join.probes == 12
        assert uncached_join.cache_hits == 0
        # Nine deduplicated probes at wide-area initial latency each.
        latency = wide_area().initial_latency_ms
        saved = uncached_context.clock.now - cached_context.clock.now
        assert saved >= 9 * latency * 0.9
        assert uncached_context.clock.now >= 12 * latency
        assert cached_context.clock.now < 4 * latency

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_batch_drive_hits_the_memo_identically(self, dup_key_catalog, batch_size):
        tuple_join, tuple_rows, _ = self._run(dup_key_catalog, probe_cache=True)
        batch_join, batch_rows, _ = self._run(
            dup_key_catalog, probe_cache=True, batch_size=batch_size
        )
        assert multiset(batch_rows) == multiset(tuple_rows)
        assert batch_join.probes == tuple_join.probes == 3
        assert batch_join.cache_hits == tuple_join.cache_hits == 9
        # Every path — the tuple drive's binder, the batch drive's key column,
        # the source-side index — memoizes under one key form: the bind value.
        assert set(tuple_join._memo) == set(batch_join._memo) == {0, 1, 2}
        assert set(batch_join._index) == {0, 1, 5}
        if batch_size > 1:
            assert set(batch_join._match_columns) == {0, 1, 2}

    @pytest.mark.parametrize("batch_size", [None, 1, 64])
    def test_two_column_bind_keys_memoize_as_tuples(self, batch_size):
        items = make_relation(
            "item", ["i_order:int", "i_tag:str", "i_n:int"],
            [(i % 3, "ab"[i % 2], i) for i in range(12)],  # six distinct pairs, each twice
        )
        orders = make_relation(
            "ord", ["o_id:int", "o_tag:str"], [(0, "a"), (0, "b"), (1, "a"), (1, "a"), (5, "b")]
        )
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("item", items, lan()))
        catalog.register_source(DataSource("ord", orders, wide_area()))
        context = ExecutionContext(catalog)
        join = DependentJoin(
            "dj", context, WrapperScan("scan_item", context, "item"), "ord",
            ["item.i_order", "item.i_tag"], ["ord.o_id", "ord.o_tag"],
        )
        join.open()
        if batch_size is None:
            rows = list(join.iterate())
        else:
            rows = []
            while batch := join.next_batch(batch_size):
                rows.extend(batch)
        assert join.probes == 6 and join.cache_hits == 6
        assert set(join._memo) == {(k, t) for k in range(3) for t in "ab"}
        # (0, a), (0, b) match once and (1, a) twice; each pair arrives twice.
        assert len(rows) == 2 * (1 + 1 + 2)
        assert all(row.values[:2] == row.values[3:] for row in rows)

    def test_full_extent_source_cache_skips_probe_latency(self, dup_key_catalog):
        """A source read to completion earlier serves probes at local speed."""
        config = EngineConfig(enable_source_caching=True)
        context = ExecutionContext(dup_key_catalog, config=config)
        # A prior scan reads "ord" to completion, depositing it in the cache.
        scan = WrapperScan("warm", context, "ord")
        scan.open()
        while scan.next() is not None:
            pass
        scan.close()
        assert "ord" in context.source_cache
        warm_time = context.clock.now
        join, rows, _ = self._run(dup_key_catalog, probe_cache=True, context=context)
        assert join._cached_extent
        assert len(rows) == 8
        # All probes are local: no wide-area initial latency is paid at all.
        assert context.clock.now - warm_time < wide_area().initial_latency_ms
