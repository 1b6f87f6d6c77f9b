"""Unit tests for the double pipelined join and its overflow strategies."""

import operator

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.operators.joins.double_pipelined import (
    LEFT,
    DoublePipelinedJoin,
    _OutputColumns,
)
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import MemoryOverflowError
from repro.network.profiles import lan, slow_start
from repro.network.source import DataSource
from repro.plan.physical import OverflowMethod
from repro.plan.rules import EventType
from repro.storage.columns import Dictionary
from repro.storage.hash_table import BucketedHashTable
from repro.storage.memory import MB
from repro.storage.tuples import counting_row_constructions

from helpers import (
    RowPipelineDPJ,
    ScriptedProfile,
    digest,
    drain,
    drive_join,
    iterate,
    make_relation,
    multiset,
    next_row,
    reference_join,
    spill_marks,
    tpcd_dpj,
    watch_threshold,
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
        assert multiset(list(iterate(join))) == multiset(expected(joinable_catalog))

    @pytest.mark.parametrize("method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH])
    def test_matches_reference_under_memory_pressure(self, joinable_catalog, method):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=method, memory=150, buckets=4)
        join.open()
        rows = list(iterate(join))
        assert multiset(rows) == multiset(expected(joinable_catalog))
        assert join.overflow_count > 0
        assert context.disk.stats.tuples_written > 0

    @pytest.mark.parametrize("method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH])
    def test_tpcd_join_under_pressure_matches_reference(self, tpcd_catalog, tiny_tpcd, method):
        context = ExecutionContext(tpcd_catalog)
        # Far less memory than the join needs.
        join = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, method)(context)
        join.open()
        rows = list(iterate(join))
        reference = reference_join(tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey")
        assert multiset(rows) == multiset(reference)
        assert join.overflow_count > 0

    def test_fail_method_raises(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=OverflowMethod.FAIL, memory=150)
        join.open()
        with pytest.raises(MemoryOverflowError):
            list(iterate(join))


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
        assert next_row(join) is not None
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
        next_row(dpj)
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
        next_row(hybrid)
        hybrid_first = hh_context.clock.now
        tpcd_catalog.source("part").set_profile(lan())
        assert dpj_first < hybrid_first

    def test_consumes_from_earlier_arriving_child_first(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(slow_start(delay_ms=500.0))
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=None)
        join.open()
        list(iterate(join))
        joinable_catalog.source("ord").set_profile(lan())
        # The right (fast) child's tuples are all inserted before the slow left child's.
        assert join._tables[1].total_inserted > 0

    def test_out_of_memory_event_emitted(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=150, buckets=4)
        join.open()
        list(iterate(join))
        events = drain(context.events)
        assert any(e.event_type == EventType.OUT_OF_MEMORY for e in events)

    def test_set_overflow_method_at_runtime(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, method=OverflowMethod.LEFT_FLUSH)
        join.set_overflow_method("symmetric_flush")
        assert join.overflow_method == OverflowMethod.SYMMETRIC_FLUSH

    def test_left_flush_spills_more_left_than_right(self, tpcd_catalog, tiny_tpcd):
        context = ExecutionContext(tpcd_catalog)
        join = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, OverflowMethod.LEFT_FLUSH)(context)
        join.open()
        list(iterate(join))
        left_flushed = len(join._tables[0].flushed_buckets)
        right_flushed = len(join._tables[1].flushed_buckets)
        assert left_flushed >= right_flushed

    def test_symmetric_flush_flushes_pairs(self, tpcd_catalog, tiny_tpcd):
        context = ExecutionContext(tpcd_catalog)
        join = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, OverflowMethod.SYMMETRIC_FLUSH)(context)
        join.open()
        list(iterate(join))
        assert set(join._tables[0].flushed_buckets) == set(join._tables[1].flushed_buckets)

    def test_releases_memory_on_close(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        join = make_join(context, memory=MB)
        join.open()
        list(iterate(join))
        join.close()
        assert context.memory_pool.granted_bytes == 0


# -- the run-at-a-time batch drive ---------------------------------------------------------
#
# Under the batch drive the join works a run segment at a time (bulk probe,
# bulk insert, bulk spill).  Two oracles hold it to the per-tuple interleave:
# the ``"rows"`` reference (helpers.RowPipelineDPJ) feeds the same tables tuple
# by tuple, and the goldens below were recorded on the engine's retired
# row-batch drive.  Consumption order, output order, refusals, spill I/O and
# the virtual clock must be *equal*, not close.


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


def stamped(rows):
    return [(row.values, row.arrival) for row in rows]


def disk_counters(context):
    stats = context.disk.stats
    return (stats.tuples_written, stats.bytes_written, stats.tuples_read, stats.total_pages)


def fingerprint(rows, context, join):
    """A drive's outcome, bit for bit: the stamped output's digest, the
    overflow count, the disk counters and the final clock."""
    return (digest(stamped(rows)), join.overflow_count, disk_counters(context), context.clock.now)


def record_resolutions(monkeypatch):
    """Log every overflow resolution: which row was refused (the two tables'
    insert counts name it), the clock, and the disk counters at that moment;
    the budget invariant is checked after each one."""
    log = []
    original = DoublePipelinedJoin._resolve_overflow

    def recorded(self):
        inserted = tuple(table.total_inserted for table in self._tables)
        log.append((inserted, self.context.clock.now, disk_counters(self.context)))
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
    """Goldens are what the engine's row-batch drive recorded at its last
    commit; the batch drive matched every one of them there."""

    #: method -> fingerprint plus the digest of the resolution log.
    REFUSALS = {
        "left_flush": ("fb63b30fb6463b91", 5, (177, 9143, 177, 2), 14.495999999999842, "b58ca640798a95ac"),
        "symmetric_flush": ("797707d4af7eeed7", 6, (225, 12547, 225, 2), 14.667999999999843, "60ad1c8bdf1491a4"),
    }
    #: Runs from a cache-collecting or a THRESHOLD-watched scan: scan mode ->
    #: the batch drive's fingerprint.
    SCAN_MODES = {
        "caching": ("797707d4af7eeed7", 6, (225, 12547, 225, 2), 14.667999999999843),
        "watched": ("14a7fa76dfee1812", 6, (230, 12904, 230, 2), 14.591999999999864),
    }
    #: Under a pending watched event the per-tuple pipeline hands the
    #: interrupting tuple's matches over one batch later than the columnar
    #: accumulators do: the same rows, order, spill I/O and final clock, but
    #: 128 output stamps 2 us later.  The row-batch drive's output digest:
    WATCHED_ROWS_DIGEST = "7f4a0248b343d01c"
    #: method -> (output digest, spill marks, disk counters, overflows, clock).
    REVOCATIONS = {
        "left_flush": ("d075f58e3c367b16", (126, 116), (242, 12259, 242, 2), 7, 14.641999999999827),
        "symmetric_flush": ("cdfa80d55e8edaa9", (111, 154), (265, 14856, 265, 2), 7, 14.641999999999827),
    }

    @staticmethod
    def scan_mode_trees(tiny_tpcd):
        """A cache-collecting scan and one a rule watches row by row, each
        cutting columnar batches; ``(tree, config)`` per scan mode."""
        build = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, OverflowMethod.SYMMETRIC_FLUSH)

        def watched(context):
            watch_threshold(context, "scan_p")
            return build(context)

        return {"caching": (build, {"enable_source_caching": True}), "watched": (watched, {})}

    # ``-True`` in the ids names the encoded column layout the goldens were recorded under.
    @pytest.mark.parametrize("method", METHODS, ids=[f"{m.value}-True" for m in METHODS])
    def test_refusal_mid_run_lands_on_the_same_row(
        self, tpcd_catalog, tiny_tpcd, method, monkeypatch
    ):
        log = record_resolutions(monkeypatch)
        build = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, method)
        for drive in ("columnar", "rows"):
            log.clear()
            rows, context, join = drive_join(build, tpcd_catalog, drive)
            outcome = fingerprint(rows, context, join) + (digest(log),)
            assert outcome == self.REFUSALS[method.value], drive
            assert join.overflow_count == len(log) > 0
        # At least one refusal struck inside a run, not at its first row.
        assert any(sum(inserted) % 128 for inserted, _, _ in log)

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
            col_rows, col_ctx, col_join = drive_join(build, catalog, "columnar", batch_size=256)
        finally:
            DoublePipelinedJoin._consume_segment = original
        row_rows, row_ctx, row_join = drive_join(build, catalog, "rows", batch_size=256)
        tuple_rows, _, _ = drive_join(build, catalog, "tuple")
        # The 59-row left run pulled after the first output overshoots the
        # right side's arrival at 2.0: it is cut there, the right tuple is
        # consumed, and only then does the rest of the run follow.
        left_segments = [rows for side, rows in switches if side == 0]
        assert sum(left_segments) == 60 and left_segments[:2] == [1, 9]
        assert switches[3][0] == 1
        golden = ("e406ef0722dd3f39", 0, (0, 0, 0, 0), 30.102000000000004)
        assert fingerprint(col_rows, col_ctx, col_join) == golden
        assert fingerprint(row_rows, row_ctx, row_join) == golden
        assert multiset(col_rows) == multiset(tuple_rows)

    def test_collecting_and_watched_runs_take_the_bulk_path(
        self, tpcd_catalog, tiny_tpcd, monkeypatch
    ):
        """A collecting or watched scan's runs reach the join as columns, and
        neither the scans nor the join box a row."""
        for mode, (tree, config) in self.scan_mode_trees(tiny_tpcd).items():
            per_tuple = count_calls(monkeypatch, BucketedHashTable, "insert_position")
            segments = count_calls(monkeypatch, DoublePipelinedJoin, "_consume_segment")
            with counting_row_constructions() as counter:
                rows, context, join = drive_join(tree, tpcd_catalog, "columnar", **config)
                built = counter.count
            assert segments
            assert len(per_tuple) <= join.overflow_count
            assert fingerprint(rows, context, join) == self.SCAN_MODES[mode]
            # Only this test's drain boxed the output.
            assert built == len(rows)
            reference, row_ctx, row_join = drive_join(tree, tpcd_catalog, "rows", **config)
            assert [row.values for row in rows] == [row.values for row in reference]
            assert fingerprint(reference, row_ctx, row_join)[1:] == self.SCAN_MODES[mode][1:]

    def test_the_reference_reproduces_the_row_batch_drive(self, tpcd_catalog, tiny_tpcd, monkeypatch):
        """``"rows"`` is the per-tuple pipeline, not the batch drive renamed:
        on the watched tree, where the row-batch drive's stamps differ from
        the batch drive's, it reproduces the row-batch golden, one
        :meth:`_process` per consumed row and the row cleanup."""
        tree, config = self.scan_mode_trees(tiny_tpcd)["watched"]
        processed = count_calls(monkeypatch, RowPipelineDPJ, "_process")
        cleanups = count_calls(monkeypatch, RowPipelineDPJ, "_cleanup_pairs")
        rows, context, join = drive_join(tree, tpcd_catalog, "rows", **config)
        assert fingerprint(rows, context, join) == (
            (self.WATCHED_ROWS_DIGEST,) + self.SCAN_MODES["watched"][1:]
        )
        assert len(processed) == len(tiny_tpcd["partsupp"]) + len(tiny_tpcd["part"])
        assert cleanups == ["_cleanup_pairs"]

    @pytest.mark.parametrize("method", METHODS)
    def test_revocation_between_batches_splits_a_run(self, tpcd_catalog, tiny_tpcd, method):
        build = tpcd_dpj(64 * 1024, method)
        split_runs = []

        def revoke(index, join):
            if index == 12:
                split_runs.extend(
                    run for run in join._runs if run is not None and 0 < run.cursor < len(run)
                )
                join.budget.revoke_to(4 * 1024)

        for drive in ("columnar", "rows"):
            split_runs.clear()
            rows, context, join = drive_join(
                build, tpcd_catalog, drive, batch_size=7, between_batches=revoke
            )
            outcome = (
                digest(stamped(rows)),
                spill_marks(context),
                disk_counters(context),
                join.overflow_count,
                context.clock.now,
            )
            assert outcome == self.REVOCATIONS[method.value], drive
            if drive == "columnar":
                assert split_runs, "the revocation was meant to land inside a buffered run"
        marked, unmarked = spill_marks(context)
        assert marked > 0 and unmarked > 0
        reference = reference_join(
            tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey"
        )
        assert len(rows) == len(reference)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_revocation_it_cannot_meet_never_raises(self, method):
        # 58 rows a side on one key, every r.q distinct: after one 64-row batch
        # the join holds 2,020 B, 628 B of them dictionary entries no flush can
        # free.  Revoking to 400 B flushes once and stops there — the handler
        # runs inside another session's grant and must not raise through
        # revoke_to; the rest surfaces at this join's own next reserve.
        catalog = scripted_catalog(
            [(0, f"p{i % 5}") for i in range(58)],
            [4.0 + 2.0 * i for i in range(58)],
            [(0, f"q{i}") for i in range(58)],
            [1.0] * 58,
        )
        context = ExecutionContext(catalog)
        join = scripted_join(method=method)(context)
        join.open()
        rows = list(join.next_batch(64))
        assert join.budget.used_bytes == 2020
        join.budget.revoke_to(400)
        assert join.budget.used_bytes == sum(t.resident_bytes for t in join._tables) == 628
        assert join.overflow_count == context.stats.operator("dpj").overflow_events == 1
        while batch := join.next_batch(64):
            rows += batch
        join.close()
        assert len(rows) == 58 * 58

    def test_tuple_drive_serves_a_high_fan_out_key_in_order(self):
        # One key matching 2,500 rows: ``next_row`` hands them over one at a
        # time from the front of the output accumulators, in emission order.
        fan_out = 2500
        left_rows = [(7, f"l{i}") for i in range(fan_out)]
        right_rows = [(7, "r0"), (8, "r1")]
        catalog = scripted_catalog(
            left_rows, [1.0] * fan_out, right_rows, [50.0, 60.0]
        )
        rows, _, _ = drive_join(scripted_join(), catalog, "tuple")
        assert [row.values for row in rows] == [(7, f"l{i}", 7, "r0") for i in range(fan_out)]

    @pytest.mark.parametrize("max_rows", [1, 7, 16, 64])
    def test_output_accumulator_drops_rows_it_has_handed_out(self, monkeypatch, max_rows):
        # Many-to-many fan-out under small batches, the Fig. 5 Q5/Q6 shape:
        # every right row meets nine left rows, so batches end mid-key and
        # rows stay pending across every hand-over.  Rows handed out leave the
        # accumulators: they never hold more than a batch plus one key's
        # fan-out, and after a split they hold only the rows kept.  An
        # overshoot smaller than the batch (16 and 64 rows) hands the
        # accumulators themselves out, cut back; a larger one copies the head.
        fan_out, keys = 9, 30
        left_rows = [(key, f"l{i}") for key in range(keys) for i in range(fan_out)]
        right_rows = [(key, f"r{key}.{i}") for i in range(3) for key in range(keys)]
        catalog = scripted_catalog(
            left_rows, [1.0] * len(left_rows),
            right_rows, [50.0 + 0.5 * i for i in range(len(right_rows))],
        )
        held = []
        in_place = []
        take_batch = _OutputColumns.take_batch

        def recorded(self, schema, max_rows):
            pending, accumulators = len(self.arrivals), self.columns
            held.append(max(pending, *map(len, accumulators)))
            batch = take_batch(self, schema, max_rows)
            if pending > max_rows:
                kept = pending - max_rows
                assert {len(self.arrivals), *map(len, self.columns)} == {kept}
                handed_whole = all(map(operator.is_, batch.columns, accumulators))
                assert handed_whole == (kept < max_rows)
                in_place.append(handed_whole)
            return batch

        monkeypatch.setattr(_OutputColumns, "take_batch", recorded)
        rows, _, _ = drive_join(scripted_join(), catalog, "columnar", batch_size=max_rows)
        assert len(rows) == fan_out * len(right_rows)
        assert multiset(rows) == multiset(
            reference_join(catalog.source("l").relation, catalog.source("r").relation, "k", "k")
        )
        assert len(held) >= len(rows) // max_rows
        assert max(held) <= max_rows + fan_out
        assert in_place and all(in_place) == (max_rows > fan_out)


class TestCodesEndToEnd:
    """Strings stay dictionary codes across every boundary a nested DPJ
    crosses: no hash table decodes and re-encodes a value."""

    def test_nested_join_tie_step_keeps_source_codes(self, monkeypatch):
        # Every tuple of all three sources arrives at one shared timetable, so
        # the parent's first left insert is a tie step into the child join.
        count = 12
        catalog = DataSourceCatalog()
        for name, rows in (
            ("a", [(i, f"a{i}") for i in range(count)]),
            ("b", [(i, f"b{i % 5}") for i in range(count)]),
            ("c", [(i, f"c{i % 3}") for i in range(count)]),
        ):
            profile = ScriptedProfile(name=f"tied-{name}", timetable=(5.0,) * count)
            relation = make_relation(name, ["k:int", f"{name}s:str"], rows)
            catalog.register_source(DataSource(name, relation, profile))
        context = ExecutionContext(catalog)
        scans = {name: WrapperScan(f"scan_{name}", context, name) for name in "abc"}
        child = DoublePipelinedJoin(
            "child", context, scans["a"], scans["b"], ["a.k"], ["b.k"]
        )
        parent = DoublePipelinedJoin(
            "parent", context, child, scans["c"], ["a.k"], ["c.k"]
        )
        steps = []
        pull = DoublePipelinedJoin._next_batch

        def recorded(self, max_rows, arrival_bound=None):
            if self is child and max_rows == 1 and not parent._tables[LEFT].total_inserted:
                steps.append(max_rows)  # a tie step before the parent's first left insert
            return pull(self, max_rows, arrival_bound)

        monkeypatch.setattr(DoublePipelinedJoin, "_next_batch", recorded)
        sources = {
            id(dictionary)
            for name in "abc"
            for dictionary in catalog.source(name).encoded_column_cache()[1]
        }  # each source codes its strings once, up front
        encodes = count_calls(monkeypatch, Dictionary, "encode")
        parent.open()
        rows = list(iterate(parent))
        assert sorted(row.values for row in rows) == [
            (i, f"a{i}", i, f"b{i % 5}", i, f"c{i % 3}") for i in range(count)
        ]
        assert steps
        assert encodes == []
        for join in (child, parent):
            for table in join._tables:
                assert not table._owned_slots
                adopted = [dictionary for _, dictionary, _ in table._adopted_slots]
                assert len(adopted) == sum(1 for a in table.schema if a.type_name == "str")
                assert {id(dictionary) for dictionary in adopted} <= sources
