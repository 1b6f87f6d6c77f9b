"""Unit tests for the double pipelined join and its overflow strategies."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import MemoryOverflowError
from repro.network.profiles import lan, slow_start
from repro.network.source import DataSource
from repro.plan.physical import OverflowMethod
from repro.plan.rules import EventType
from repro.storage.hash_table import BucketedHashTable
from repro.storage.memory import MB
from repro.storage.tuples import counting_row_constructions

from helpers import (
    ScriptedProfile,
    drive_join,
    make_relation,
    multiset,
    reference_join,
    spill_marks,
)


def make_join(context, method=OverflowMethod.LEFT_FLUSH, memory=None, buckets=16):
    left = WrapperScan(f"scan_ord_{method.value}", context, "ord")
    right = WrapperScan(f"scan_item_{method.value}", context, "item")
    return DoublePipelinedJoin(
        f"dpj_{method.value}",
        context,
        left,
        right,
        ["ord.o_id"],
        ["item.i_order"],
        memory_limit_bytes=memory,
        bucket_count=buckets,
        overflow_method=method,
    )


def expected(catalog):
    return reference_join(
        catalog.source("ord").relation, catalog.source("item").relation, "o_id", "i_order"
    )


class TestCorrectness:
    def test_matches_reference_with_ample_memory(self, joinable_catalog, context):
        join = make_join(context, memory=10 * MB)
        join.open()
        assert multiset(list(join.iterate())) == multiset(expected(joinable_catalog))

    @pytest.mark.parametrize("method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH])
    def test_matches_reference_under_memory_pressure(self, joinable_catalog, method):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=method, memory=150, buckets=4)
        join.open()
        rows = list(join.iterate())
        assert multiset(rows) == multiset(expected(joinable_catalog))
        assert join.overflow_count > 0
        assert context.disk.stats.tuples_written > 0

    @pytest.mark.parametrize("method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH])
    def test_tpcd_join_under_pressure_matches_reference(self, tpcd_catalog, tiny_tpcd, method):
        context = ExecutionContext(tpcd_catalog)
        left = WrapperScan("scan_ps", context, "partsupp")
        right = WrapperScan("scan_p", context, "part")
        join = DoublePipelinedJoin(
            "dpj", context, left, right,
            ["partsupp.ps_partkey"], ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,  # far less than needed
            bucket_count=8,
            overflow_method=method,
        )
        join.open()
        rows = list(join.iterate())
        reference = reference_join(tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey")
        assert multiset(rows) == multiset(reference)
        assert join.overflow_count > 0

    def test_fail_method_raises(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=OverflowMethod.FAIL, memory=150)
        join.open()
        with pytest.raises(MemoryOverflowError):
            list(join.iterate())


class TestAdaptiveBehaviour:
    def test_first_output_does_not_wait_for_either_input(self, tpcd_catalog):
        """DPJ produces output long before either input is exhausted."""
        context = ExecutionContext(tpcd_catalog)
        left = WrapperScan("l", context, "partsupp")
        right = WrapperScan("r", context, "part")
        join = DoublePipelinedJoin(
            "dpj", context, left, right, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )
        join.open()
        assert join.next() is not None
        assert not left.wrapper.exhausted or not right.wrapper.exhausted

    def test_time_to_first_tuple_beats_hybrid_hash_when_inner_is_slow(self, tpcd_catalog):
        tpcd_catalog.source("part").set_profile(slow_start(delay_ms=2_000.0))
        dpj_context = ExecutionContext(tpcd_catalog)
        dpj = DoublePipelinedJoin(
            "dpj",
            dpj_context,
            WrapperScan("l1", dpj_context, "partsupp"),
            WrapperScan("r1", dpj_context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
        )
        dpj.open()
        dpj.next()
        dpj_first = dpj_context.clock.now

        hh_context = ExecutionContext(tpcd_catalog)
        hybrid = HybridHashJoin(
            "hh",
            hh_context,
            WrapperScan("l2", hh_context, "partsupp"),
            WrapperScan("r2", hh_context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
        )
        hybrid.open()
        hybrid.next()
        hybrid_first = hh_context.clock.now
        tpcd_catalog.source("part").set_profile(lan())
        assert dpj_first < hybrid_first

    def test_consumes_from_earlier_arriving_child_first(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(slow_start(delay_ms=500.0))
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=None)
        join.open()
        list(join.iterate())
        joinable_catalog.source("ord").set_profile(lan())
        # The right (fast) child's tuples are all inserted before the slow left child's.
        assert join._tables[1].total_inserted > 0

    def test_out_of_memory_event_emitted(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=150, buckets=4)
        join.open()
        list(join.iterate())
        events = context.events.drain()
        assert any(e.event_type == EventType.OUT_OF_MEMORY for e in events)

    def test_set_overflow_method_at_runtime(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=OverflowMethod.LEFT_FLUSH)
        join.set_overflow_method("symmetric_flush")
        assert join.overflow_method == OverflowMethod.SYMMETRIC_FLUSH

    def test_left_flush_spills_more_left_than_right(self, tpcd_catalog, tiny_tpcd):
        context = ExecutionContext(tpcd_catalog)
        left = WrapperScan("l", context, "partsupp")
        right = WrapperScan("r", context, "part")
        join = DoublePipelinedJoin(
            "dpj", context, left, right,
            ["partsupp.ps_partkey"], ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
            overflow_method=OverflowMethod.LEFT_FLUSH,
        )
        join.open()
        list(join.iterate())
        left_flushed = len(join._tables[0].flushed_buckets)
        right_flushed = len(join._tables[1].flushed_buckets)
        assert left_flushed >= right_flushed

    def test_symmetric_flush_flushes_pairs(self, tpcd_catalog, tiny_tpcd):
        context = ExecutionContext(tpcd_catalog)
        left = WrapperScan("l", context, "partsupp")
        right = WrapperScan("r", context, "part")
        join = DoublePipelinedJoin(
            "dpj", context, left, right,
            ["partsupp.ps_partkey"], ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
            overflow_method=OverflowMethod.SYMMETRIC_FLUSH,
        )
        join.open()
        list(join.iterate())
        assert set(join._tables[0].flushed_buckets) == set(join._tables[1].flushed_buckets)

    def test_releases_memory_on_close(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=MB)
        join.open()
        list(join.iterate())
        join.close()
        assert context.memory_pool.granted_bytes == 0


# -- the run-at-a-time columnar drive ------------------------------------------------------
#
# Under the columnar drive the join works a run segment at a time (bulk probe,
# bulk insert, bulk spill).  The row-batch drive still feeds the same tables
# tuple by tuple, so it is the oracle: consumption order, output order,
# refusals, spill I/O and the virtual clock must be *equal*, not close.


def scripted_catalog(left_rows, left_times, right_rows, right_times):
    """Sources ``l(k, p)`` / ``r(k, q)`` whose tuples arrive on explicit timetables."""
    catalog = DataSourceCatalog()
    for name, columns, rows, times in (
        ("l", ["k:int", "p:str"], left_rows, left_times),
        ("r", ["k:int", "q:str"], right_rows, right_times),
    ):
        profile = ScriptedProfile(name=f"scripted-{name}", timetable=tuple(times))
        catalog.register_source(DataSource(name, make_relation(name, columns, rows), profile))
    return catalog


def scripted_join(memory=None, method=OverflowMethod.LEFT_FLUSH, buckets=8):
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_l", context, "l"),
            WrapperScan("scan_r", context, "r"),
            ["l.k"],
            ["r.k"],
            memory_limit_bytes=memory,
            bucket_count=buckets,
            overflow_method=method,
        )

    return build


def tpcd_join(memory, method, buckets=8):
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=memory,
            bucket_count=buckets,
            overflow_method=method,
        )

    return build


def stamped(rows):
    return [(row.values, row.arrival) for row in rows]


def disk_counters(context):
    stats = context.disk.stats
    return (stats.tuples_written, stats.bytes_written, stats.tuples_read, stats.total_pages)


def record_resolutions(monkeypatch):
    """Log every overflow resolution: which row was refused (the two tables'
    insert counts name it), the clock, and the disk counters at that moment;
    the budget invariant is checked after each one."""
    log = []
    original = DoublePipelinedJoin._resolve_overflow

    def recorded(self):
        log.append(
            (
                self.context.columnar,
                tuple(table.total_inserted for table in self._tables),
                self.context.clock.now,
                disk_counters(self.context),
            )
        )
        original(self)
        assert self.budget.used_bytes == sum(t.resident_bytes for t in self._tables)

    monkeypatch.setattr(DoublePipelinedJoin, "_resolve_overflow", recorded)
    return log


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


METHODS = [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]


class TestRunAtATime:
    @pytest.mark.parametrize("encoded", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_refusal_mid_run_lands_on_the_same_row(
        self, tpcd_catalog, tiny_tpcd, method, encoded, monkeypatch
    ):
        log = record_resolutions(monkeypatch)
        build = tpcd_join(len(tiny_tpcd["partsupp"]) * 20, method)
        col_rows, col_ctx, col_join = drive_join(
            build, tpcd_catalog, "columnar", encoded_columns=encoded
        )
        row_rows, row_ctx, row_join = drive_join(
            build, tpcd_catalog, "rows", encoded_columns=encoded
        )
        columnar_log = [entry[1:] for entry in log if entry[0]]
        row_log = [entry[1:] for entry in log if not entry[0]]
        assert columnar_log == row_log, "a refusal moved to a different row, time or disk state"
        assert col_join.overflow_count == row_join.overflow_count == len(row_log) > 0
        # At least one refusal struck inside a run, not at its first row.
        assert any(sum(inserted) % 128 for inserted, _, _ in row_log)
        assert disk_counters(col_ctx) == disk_counters(row_ctx)
        assert col_ctx.clock.now == row_ctx.clock.now
        assert stamped(col_rows) == stamped(row_rows)

    def test_slack_window_run_is_not_consumed_ahead_of_the_other_side(self):
        # After the first output a left run may overshoot the right side's
        # next arrival by the 5 ms slack window; a right tuple arriving
        # inside that window must still be consumed in arrival order.
        left_times = [1.0 + 0.1 * i for i in range(60)]
        right_times = [1.05] + [2.0 + 0.25 * i for i in range(12)] + [30.0, 30.1]
        left_rows = [(i % 3, f"l{i}") for i in range(60)]
        right_rows = [(i % 3, f"r{i}") for i in range(15)]
        catalog = scripted_catalog(left_rows, left_times, right_rows, right_times)
        build = scripted_join()
        switches = []
        original = DoublePipelinedJoin._consume_segment

        def spy(self, side, run, room, arrival_bound):
            before = run.cursor
            original(self, side, run, room, arrival_bound)
            switches.append((side, run.cursor - before))

        DoublePipelinedJoin._consume_segment = spy
        try:
            col_rows, col_ctx, _ = drive_join(build, catalog, "columnar", batch_size=256)
        finally:
            DoublePipelinedJoin._consume_segment = original
        row_rows, row_ctx, _ = drive_join(build, catalog, "rows", batch_size=256)
        tuple_rows, _, _ = drive_join(build, catalog, "tuple")
        # The 59-row left run pulled after the first output overshoots the
        # right side's arrival at 2.0: it is cut there, the right tuple is
        # consumed, and only then does the rest of the run follow.
        left_segments = [rows for side, rows in switches if side == 0]
        assert sum(left_segments) == 60 and left_segments[:2] == [1, 9]
        assert switches[3][0] == 1
        assert stamped(col_rows) == stamped(row_rows)
        assert col_ctx.clock.now == row_ctx.clock.now
        assert multiset(col_rows) == multiset(tuple_rows)

    def test_row_backed_runs_take_the_bulk_path(self, tpcd_catalog, tiny_tpcd, monkeypatch):
        """Cache-collecting and THRESHOLD-watched scans hand the join
        row-backed batches; the columnar drive transposes each run once and
        never boxes a row of its own."""
        build = tpcd_join(len(tiny_tpcd["partsupp"]) * 20, OverflowMethod.SYMMETRIC_FLUSH)

        def watched(context):
            context.watch_events({(EventType.THRESHOLD, "scan_p")})
            return build(context)

        def rows_built_by_the_scans(tree, config):
            """Row constructions of the two scans drained on their own."""
            context = ExecutionContext(tpcd_catalog, config=EngineConfig(**config))
            join = tree(context)
            with counting_row_constructions() as counter:
                for scan in join.children:
                    scan.open()
                    while scan.next_batch(128):
                        context.batch_interrupt = False
                    scan.close()
                return counter.count

        for tree, config in ((build, {"enable_source_caching": True}), (watched, {})):
            inputs = rows_built_by_the_scans(tree, config)
            per_tuple = count_calls(monkeypatch, BucketedHashTable, "insert_position")
            segments = count_calls(monkeypatch, DoublePipelinedJoin, "_consume_segment")
            boxed = count_calls(monkeypatch, DoublePipelinedJoin, "_process")
            with counting_row_constructions() as counter:
                rows, context, join = drive_join(tree, tpcd_catalog, "columnar", **config)
                built = counter.count
            assert segments and not boxed
            assert len(per_tuple) <= join.overflow_count
            reference, row_ctx, row_join = drive_join(tree, tpcd_catalog, "rows", **config)
            assert [row.values for row in rows] == [row.values for row in reference]
            assert join.overflow_count == row_join.overflow_count > 0
            assert disk_counters(context) == disk_counters(row_ctx)
            if tree is build:
                assert stamped(rows) == stamped(reference)
                assert context.clock.now == row_ctx.clock.now
            else:
                # Under a pending watched event the row pipeline hands the
                # interrupting tuple's matches over one batch later than the
                # columnar accumulators do, which moves the per-batch CPU
                # overlap (and so the clock) by a few microseconds.
                assert context.clock.now == pytest.approx(row_ctx.clock.now, rel=1e-3)
            # The scans' own rows plus the output boxed by this test's drain:
            # the join built none.
            assert built == inputs + len(rows)

    @pytest.mark.parametrize("method", METHODS)
    def test_revocation_between_batches_splits_a_run(self, tpcd_catalog, tiny_tpcd, method):
        build = tpcd_join(64 * 1024, method)
        split_runs = []

        def revoke(index, join):
            if index == 12:
                if join.context.columnar:
                    split_runs.extend(
                        run for run in join._runs if run is not None and 0 < run.cursor < len(run)
                    )
                join.budget.revoke_to(4 * 1024)

        results = {}
        for drive in ("columnar", "rows"):
            rows, context, join = drive_join(
                build, tpcd_catalog, drive, batch_size=7, between_batches=revoke
            )
            results[drive] = (
                stamped(rows),
                spill_marks(context),
                disk_counters(context),
                join.overflow_count,
                context.clock.now,
            )
        assert split_runs, "the revocation was meant to land inside a buffered run"
        assert results["columnar"] == results["rows"]
        marked, unmarked = results["rows"][1]
        assert marked > 0 and unmarked > 0
        reference = reference_join(
            tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey"
        )
        assert len(results["rows"][0]) == len(reference)

    def test_tuple_drive_serves_a_high_fan_out_key_in_order(self):
        # One key matching 2,500 rows: the tuple drive hands them over through
        # a cursor (a pop(0) per row was quadratic), in emission order.
        fan_out = 2500
        left_rows = [(7, f"l{i}") for i in range(fan_out)]
        right_rows = [(7, "r0"), (8, "r1")]
        catalog = scripted_catalog(
            left_rows, [1.0] * fan_out, right_rows, [50.0, 60.0]
        )
        rows, _, _ = drive_join(scripted_join(), catalog, "tuple")
        assert [row.values for row in rows] == [(7, f"l{i}", 7, "r0") for i in range(fan_out)]
