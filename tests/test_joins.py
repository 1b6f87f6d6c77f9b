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
from repro.storage.batch import Batch
from repro.storage.memory import MB
from repro.storage.schema import Schema

from helpers import (
    ScriptedRuns,
    digest,
    iterate,
    make_relation,
    multiset,
    next_row,
    reference_join,
)


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
        rows = list(iterate(join))
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
        rows = list(iterate(join))
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
        rows = list(iterate(join))
        assert multiset(rows) == multiset(expected_join(joinable_catalog))
        assert context.disk.stats.tuples_written > 0
        assert context.stats.operator("hh").overflow_events > 0

    def test_no_build_row_lost_when_dictionaries_fill_the_budget(self):
        """With every resident bucket flushed, the string dictionaries alone
        can hold the budget: a refused row whose bucket is still empty must
        spill (its bucket flushed), not be dropped."""
        orders = make_relation("ord", ["o_id:int", "o_cust:str"], [(i, f"c{i}") for i in range(30)])
        items = make_relation(
            "item", ["i_order:int", "i_sku:str"], [(i, f"sku-{i:04d}") for i in range(30)]
        )
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("ord", orders, lan()))
        catalog.register_source(DataSource("item", items, lan()))
        context = ExecutionContext(catalog)
        left, right = scans(context)
        join = HybridHashJoin(
            "hh", context, left, right, ["ord.o_id"], ["item.i_order"],
            memory_limit_bytes=400, bucket_count=64,
        )
        join.open()
        rows = list(iterate(join))
        assert multiset(rows) == multiset(expected_join(catalog))

    def test_first_output_waits_for_inner(self, tpcd_catalog):
        """The hybrid hash join cannot emit anything before the build side finishes."""
        context = ExecutionContext(tpcd_catalog)
        outer = WrapperScan("outer", context, "partsupp")
        inner = WrapperScan("inner", context, "part")
        join = HybridHashJoin(
            "hh", context, outer, inner, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )
        join.open()
        first = next_row(join)
        assert first is not None
        # The inner relation must be fully consumed before the first output.
        assert inner.wrapper.exhausted

    def test_releases_memory_on_close(self, joinable_catalog, context):
        left, right = scans(context)
        join = HybridHashJoin(
            "hh", context, left, right, ["ord.o_id"], ["item.i_order"], memory_limit_bytes=MB
        )
        join.open()
        list(iterate(join))
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
        rows = list(iterate(join))
        expected = expected_join(catalog_with_lookup)
        assert multiset(rows) == multiset(expected)
        assert join.probes == 3  # one parameterized fetch per left tuple

    def test_each_probe_pays_source_latency(self, catalog_with_lookup):
        context = ExecutionContext(catalog_with_lookup)
        left = WrapperScan("scan_ord", context, "ord")
        join = DependentJoin("dj", context, left, "item", ["ord.o_id"], ["item.i_order"])
        join.open()
        list(iterate(join))
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

    def _run(self, catalog, probe_cache, batch_size=64, context=None):
        context = context or ExecutionContext(catalog)
        left = WrapperScan("scan_item", context, "item")
        join = DependentJoin(
            "dj", context, left, "ord", ["item.i_order"], ["ord.o_id"],
            probe_cache=probe_cache,
        )
        join.open()
        rows = []
        while batch := join.next_batch(batch_size):
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
        batch_join, batch_rows, _ = self._run(
            dup_key_catalog, probe_cache=True, batch_size=batch_size
        )
        # Keys 0 and 1 match "ada" and "bob"; key 2 matches nothing.
        assert multiset(batch_rows) == {
            (i % 3, f"sku{i}", i % 3, ("ada", "bob")[i % 3]): 1 for i in range(12) if i % 3 < 2
        }
        assert batch_join.probes == 3
        assert batch_join.cache_hits == 9
        # Every path — the batch's key column, the source-side index —
        # memoizes under one key form: the bind value.
        assert set(batch_join._memo) == {0, 1, 2}
        assert set(batch_join._index) == {0, 1, 5}

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
            rows = list(iterate(join))
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
        while next_row(scan) is not None:
            pass
        scan.close()
        assert "ord" in context.source_cache
        warm_time = context.clock.now
        join, rows, _ = self._run(dup_key_catalog, probe_cache=True, context=context)
        assert join._cached_extent
        assert len(rows) == 8
        # All probes are local: no wide-area initial latency is paid at all.
        assert context.clock.now - warm_time < wide_area().initial_latency_ms

class TestHybridRevocationMidProbe:
    """A broker revocation that lands while one probe's fan-out is still being
    handed out flushes, truncates and compacts the arena under it; the matches
    were fixed when the batch probed, so the output, its stamps and every
    clock reading are what they were when each probe gathered all its matches
    at once — the goldens were recorded on that engine."""

    OUTER = Schema.of("l.k:int", "l.p:str")
    INNER = Schema.of("r.k:int", "r.q:str")
    #: Keys 0 and 1 interleaved, then key 3, then key 2's 40 rows at the
    #: arena's tail (buckets 0, 1, 4 and 3 of 8): a revocation down to 20 rows
    #: flushes key 2 (the tail: truncated in place), key 0 (dead slots) and
    #: key 1 (dead outnumber live: compacted).
    BUILD_KEYS = [i % 2 for i in range(60)] + [3] * 10 + [2] * 40
    #: outer stamps -> (digest of the output rows and stamps, batch sizes,
    #: digest of the clock after every pull, final clock, overflow events,
    #: budget used after the revocation)
    GOLDEN = {
        "build-side-later": (
            "c808870b3dfbff19", [7] * 15 + [5], "a0bc1105b514905b", 70.20599999999995, 3, 1450,
        ),
        "probe-side-later": (
            "a94bfe8034c263a8", [7] * 15 + [5], "6d0709c16da6d4c5", 1004.2060000000001, 3, 1450,
        ),
    }

    def drive(self, outer_stamps):
        context = ExecutionContext(DataSourceCatalog())
        inner = Batch.from_columns(
            self.INNER,
            [self.BUILD_KEYS, [f"q{i}" for i in range(110)]],
            [1.0 + 0.5 * i for i in range(110)],
        )
        outer = Batch.from_columns(self.OUTER, [[2, 0, 1, 7, 3], list("abcde")], list(outer_stamps))
        join = HybridHashJoin(
            "hh", context, ScriptedRuns("l", context, self.OUTER, [outer]),
            ScriptedRuns("r", context, self.INNER, [inner]), ["l.k"], ["r.k"],
            memory_limit_bytes=64 * 1024, bucket_count=8,
        )
        join.open()
        batches = [join.next_batch(7)]
        clocks = [context.clock.now]
        table = join._inner_table
        assert len(table.arena) == 110 and len(batches[0]) == 7
        join.budget.revoke_to(table.dictionary_bytes + 20 * table.row_bytes)
        assert table.flushed_buckets == [0, 1, 3]
        assert len(table.arena) == table.resident_rows == 10  # truncated, then compacted
        used = join.budget.used_bytes
        assert used == table.resident_bytes + join._outer_table.resident_bytes
        while batch := join.next_batch(7):
            batches.append(batch)
            clocks.append(context.clock.now)
        join.close()
        rows = [(row.values, row.arrival) for batch in batches for row in batch]
        assert len(rows) == 110
        return (
            digest(rows), [len(batch) for batch in batches], digest(clocks), context.clock.now,
            context.stats.operator("hh").overflow_events, used,
        )

    @pytest.mark.parametrize(
        "case, outer_stamps",
        [
            ("build-side-later", (3.0, 20.0, 40.0, 60.0, 70.0)),
            ("probe-side-later", (1000.0, 1001.0, 1002.0, 1003.0, 1004.0)),
        ],
    )
    def test_output_is_fixed_when_the_batch_probes(self, case, outer_stamps):
        assert self.drive(outer_stamps) == self.GOLDEN[case]
