"""Unit tests for scans, select, project, union, and materialize operators."""

import pytest

from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.project import Project
from repro.engine.operators.scan import TableScan, WrapperScan
from repro.engine.operators.select import Select
from repro.engine.operators.union import Union
from repro.errors import ExecutionError, SourceTimeoutError
from repro.network.profiles import bursty, lan, slow_start, wide_area
from repro.storage.batch import Batch
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import counting_row_constructions
from repro.plan.rules import EventType
from repro.query.conjunctive import SelectionPredicate

from helpers import digest, drain, iterate, make_relation, next_row, watch_threshold


class TestOperatorBase:
    def test_next_before_open_raises(self, context):
        scan = WrapperScan("s", context, "ord")
        with pytest.raises(ExecutionError):
            next_row(scan)

    def test_open_emits_opened_event(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        events = drain(context.events)
        assert any(e.event_type == EventType.OPENED and e.subject == "s" for e in events)

    def test_close_emits_closed_event_with_cardinality(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        list(iterate(scan))
        drain(context.events)
        scan.close()
        events = drain(context.events)
        closed = [e for e in events if e.event_type == EventType.CLOSED and e.subject == "s"]
        assert closed and closed[0].value == 3

    def test_deactivated_operator_returns_none(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        scan.deactivate()
        assert next_row(scan) is None
        assert scan.peek_arrival() is None


class TestWrapperScan:
    def test_streams_all_rows_with_qualified_schema(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        rows = list(iterate(scan))
        assert len(rows) == 3
        assert scan.output_schema.names == ("ord.o_id", "ord.o_cust")
        assert scan.tuples_produced == 3

    def test_arrival_times_monotone(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        arrivals = [row.arrival for row in iterate(scan)]
        assert arrivals == sorted(arrivals)

    def test_peek_arrival_before_and_after_eof(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        assert scan.peek_arrival() is not None
        list(iterate(scan))
        assert scan.peek_arrival() is None

    def test_threshold_events_emitted(self, context):
        # A rule that must see every count: the scan reports each row.
        watch_threshold(context, "s")
        scan = WrapperScan("s", context, "ord")
        scan.open()
        list(iterate(scan))
        events = drain(context.events)
        thresholds = [e for e in events if e.event_type == EventType.THRESHOLD]
        assert [e.value for e in thresholds] == [1, 2, 3]

    def test_timeout_emits_event_and_raises(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(slow_start(delay_ms=10_000.0))
        context = ExecutionContext(joinable_catalog)
        scan = WrapperScan("s", context, "ord", timeout_ms=50.0)
        scan.open()
        with pytest.raises(SourceTimeoutError):
            next_row(scan)
        events = drain(context.events)
        assert any(e.event_type == EventType.TIMEOUT and e.subject == "ord" for e in events)
        assert any(e.event_type == EventType.TIMEOUT and e.subject == "s" for e in events)


class TestTableScan:
    def test_scans_materialized_relation(self, context):
        rel = make_relation("cached", ["x:int"], [(1,), (2,)])
        context.local_store.materialize(rel)
        scan = TableScan("t", context, "cached")
        scan.open()
        assert [row["x"] for row in iterate(scan)] == [1, 2]

    def test_missing_relation_raises_on_open(self, context):
        scan = TableScan("t", context, "ghost")
        with pytest.raises(Exception):
            scan.open()

    def test_tie_steps_box_only_the_rows_delivered(self, context):
        """``next_row`` over a fragment result held as columnar batches (a
        double pipelined join's tie step) reads the row in place: nothing
        else is boxed and the relation keeps serving column slices."""
        schema = Schema.of("x:int", "y:str")
        relation = Relation("frag", schema)
        for start, stop in ((0, 3), (3, 8), (8, 8), (8, 10)):  # one batch is empty
            relation.extend_batch(
                Batch.from_columns(
                    schema,
                    [list(range(start, stop)), [f"v{i}" for i in range(start, stop)]],
                    [0.0] * (stop - start),
                )
            )
        context.local_store.materialize(relation)
        scan = TableScan("t", context, "frag")
        scan.open()
        context.clock.consume_cpu(2.0)
        with counting_row_constructions() as counter:
            first = [next_row(scan) for _ in range(4)]
            assert counter.count == 4
        assert [row.values for row in first] == [(i, f"v{i}") for i in range(4)]
        assert all(row.schema is schema and row.arrival >= 2.0 for row in first)
        with counting_row_constructions() as counter:
            block = scan.next_batch(3)
            assert relation.column_block(8, 5) == ([[8, 9], ["v8", "v9"]], 2)
            assert counter.count == 0
        assert block.columns == [[4, 5, 6], ["v4", "v5", "v6"]]
        assert [row.values[0] for row in iterate(scan)] == [7, 8, 9]
        assert next_row(scan) is None


# -- the row-free source layer -----------------------------------------------------------------
#
# Under the batch drive no scan boxes a tuple: a bare scan, a cache-collecting
# first reader, a scan served from the cache it filled, and a bounded pull on a
# table scan.  The goldens were recorded on the row paths these replaced (the
# retired row-batch drive), which the columnar paths matched: batches cut at
# the same rows, the same arrival stamps and the same clock, *equal*, not close.

SOURCE_PROFILES = [lan(), wide_area(), bursty(burst_size=7)]


def caching_context(catalog, **config):
    return ExecutionContext(catalog, config=EngineConfig(enable_source_caching=True, **config))


def drain_batches(scan, sizes=(1, 4, 64), bound_step=None):
    """Open, drain and close ``scan``; one ``(values, stamps)`` pair per batch.

    With ``bound_step`` every pull is bounded at ``clock.now + bound_step``
    (a run-at-a-time consumer's pull); an empty bounded batch that is not end
    of stream is recorded too, then the bound moves on with one tuple step.
    """
    scan.open()
    batches = []
    pull = 0
    while True:
        size = sizes[min(pull, len(sizes) - 1)]
        pull += 1
        if bound_step is None:
            batch = scan.next_batch(size)
        else:
            batch = scan.next_batch_bounded(size, scan.context.clock.now + bound_step)
            if not batch:
                batches.append(([], []))
                row = next_row(scan)
                if row is None:
                    break
                batches.append(([row.values], [row.arrival]))
                continue
        if not batch:
            break
        batches.append(([row.values for row in batch.rows()], list(batch.arrivals)))
    scan.close()
    return batches


def clock_state(context):
    stats = context.clock.stats
    return (context.clock.now, stats.wait_ms, stats.cpu_ms, stats.io_ms)


class TestRowFreeScans:
    @pytest.fixture(params=SOURCE_PROFILES, ids=lambda profile: profile.name)
    def catalog(self, tpcd_catalog, request):
        tpcd_catalog.source("partsupp").set_profile(request.param)
        return tpcd_catalog

    @staticmethod
    def drain_counting(scan):
        with counting_row_constructions() as counter:
            scan.open()
            rows = 0
            while batch := scan.next_batch(64):
                rows += len(batch)
            scan.close()
            return rows, counter.count

    def test_bare_scan_boxes_nothing(self, catalog):
        scan = WrapperScan("s", ExecutionContext(catalog), "partsupp")
        rows, boxed = self.drain_counting(scan)
        assert rows == catalog.source("partsupp").cardinality
        assert boxed == 0

    def test_collecting_and_cache_served_scans_box_nothing(self, catalog):
        context = caching_context(catalog)
        source = catalog.source("partsupp")
        first = WrapperScan("first", context, "partsupp")
        rows, boxed = self.drain_counting(first)
        assert (rows, boxed) == (source.cardinality, 0)
        entry = context.source_cache.lookup("partsupp", context.clock.now)
        assert entry is not None and entry.source is source
        assert entry.cardinality == source.cardinality
        served = WrapperScan("served", context, "partsupp")
        rows, boxed = self.drain_counting(served)
        assert served.served_from_cache
        assert (rows, boxed) == (source.cardinality, 0)
        assert source.stats.connections_opened == 1

    def test_one_schema_instance_from_source_to_scan(self, catalog):
        context = caching_context(catalog)
        exported = catalog.source("partsupp").exported_schema
        first = WrapperScan("first", context, "partsupp")
        self.drain_counting(first)
        served = WrapperScan("served", context, "partsupp")
        served.open()
        assert first.output_schema is exported and first.wrapper.schema is exported
        assert served.output_schema is exported
        assert context.source_cache.lookup("partsupp", context.clock.now).schema is exported
        assert served.next_batch(8).schema is exported

    #: (profile, bound step) -> digest of both scans' per-batch values and
    #: stamps and the clock after the first, then the final clock state.
    ROW_PATHS = {
        ("lan", None): ("7104c97c6facea39", (14.721999999999754, 13.041999999999886, 1.6799999999999773, 0.0)),
        ("lan", 0.05): ("c5e16bba7d4e68ae", (14.721999999999783, 13.041999999999744, 1.679999999999978, 0.0)),
        ("lan", 3.0): ("ef88a260fe42e4e8", (14.721999999999754, 13.041999999999886, 1.6799999999999773, 0.0)),
        ("wide-area", None): ("51dc10b161211eb3", (289.12146611864125, 287.441466118647, 1.6799999999999773, 0.0)),
        ("wide-area", 0.05): ("9089bae6b5229233", (289.13546611864155, 287.4554661186462, 1.679999999999978, 0.0)),
        ("wide-area", 3.0): ("97098f1b5bfa76e3", (289.1214661186416, 287.441466118647, 1.6799999999999777, 0.0)),
        ("bursty", None): ("2a24e93c49439760", (13881.111890924121, 13879.431890924072, 1.6799999999999773, 0.0)),
        ("bursty", 0.05): ("326fcf79c480d4b4", (13881.11389092414, 13879.433890924009, 1.679999999999978, 0.0)),
        ("bursty", 3.0): ("957fb934c066db7b", (13881.11189092414, 13879.431890924061, 1.6799999999999777, 0.0)),
    }

    @pytest.mark.parametrize("bound_step", [None, 0.05, 3.0], ids=["unbounded", "tight", "loose"])
    def test_collecting_and_served_scans_equal_the_row_paths(self, catalog, bound_step):
        context = caching_context(catalog)
        first = drain_batches(WrapperScan("first", context, "partsupp"), bound_step=bound_step)
        after_first = clock_state(context)
        served_scan = WrapperScan("served", context, "partsupp")
        served = drain_batches(served_scan, bound_step=bound_step)
        assert served_scan.served_from_cache
        profile = catalog.source("partsupp").profile.name
        outcome = (digest((first, after_first, served)), clock_state(context))
        assert outcome == self.ROW_PATHS[profile, bound_step]
        flat = [values for batch, _ in first for values in batch]
        assert flat == [row.values for row in catalog.source("partsupp").relation.rows]
        assert [values for batch, _ in served for values in batch] == flat

    def test_tuple_drive_keeps_its_rows_and_fills_the_same_view(self, catalog):
        """A tuple-drive first reader boxes one row per tuple it delivers — never
        the export — and deposits the same view a columnar reader is served from."""
        context = caching_context(catalog)
        source = catalog.source("partsupp")
        first = WrapperScan("first", context, "partsupp")
        first.open()
        rows = list(iterate(first))
        first.close()
        assert [row.values for row in rows] == [row.values for row in source.relation.rows]
        assert all(row.schema is source.exported_schema for row in rows)
        served = WrapperScan("served", context, "partsupp")
        with counting_row_constructions() as counter:
            batches = drain_batches(served, sizes=(64,))
            assert counter.count == sum(len(batch) for batch, _ in batches)  # drain_batches' own
        assert served.served_from_cache
        assert [values for batch, _ in batches for values in batch] == [r.values for r in rows]
        tuple_served = WrapperScan("tuple_served", context, "partsupp")
        tuple_served.open()
        assert [row.values for row in iterate(tuple_served)] == [r.values for r in rows]

    def test_table_scan_bounded_pull_stops_at_the_bound(self, tpcd_catalog):
        """Stored rows all arrive "now": a bounded pull takes a block while the
        clock is before the bound and nothing (the clock untouched) once it is
        not, boxing no row either way."""
        relation = tpcd_catalog.source("part").relation
        context = ExecutionContext(tpcd_catalog)
        context.local_store.materialize(relation)
        context.clock.consume_cpu(5.0)
        scan = TableScan("t", context, "part")
        scan.open()
        counts = []
        with counting_row_constructions() as counter:
            for bound in (5.0, 4.0, 5.0 + 1e-9, float("inf"), float("inf")):
                before = clock_state(context)
                batch = scan.next_batch_bounded(16, bound)
                counts.append(len(batch))
                assert list(batch.arrivals) == [before[0]] * len(batch)
                if not batch:
                    assert clock_state(context) == before
            boxed = counter.count
        assert boxed == 0
        assert counts == [0, 0, 16, 16, 16]
        assert len(scan.next_batch(10_000)) == relation.cardinality - 48


class TestSelectProject:
    def test_select_filters(self, context):
        scan = WrapperScan("s", context, "ord")
        select = Select(
            "sel", context, scan, [SelectionPredicate("ord", "o_id", ">=", 2)]
        )
        select.open()
        assert [row["o_id"] for row in iterate(select)] == [2, 3]

    def test_select_multiple_predicates_conjunctive(self, context):
        scan = WrapperScan("s", context, "ord")
        select = Select(
            "sel",
            context,
            scan,
            [
                SelectionPredicate("ord", "o_id", ">=", 2),
                SelectionPredicate("ord", "o_cust", "=", "bob"),
            ],
        )
        select.open()
        assert [row["o_cust"] for row in iterate(select)] == ["bob"]

    def test_project_restricts_schema(self, context):
        scan = WrapperScan("s", context, "ord")
        project = Project("p", context, scan, ["ord.o_cust"])
        project.open()
        rows = list(iterate(project))
        assert project.output_schema.names == ("ord.o_cust",)
        assert [row.values for row in rows] == [("ada",), ("bob",), ("cyd",)]


class TestUnion:
    def test_union_concatenates_children(self, context):
        a = WrapperScan("a", context, "ord")
        b = WrapperScan("b", context, "ord")
        union = Union("u", context, [a, b])
        union.open()
        assert len(list(iterate(union))) == 6

    def test_union_requires_children(self, context):
        with pytest.raises(ExecutionError):
            Union("u", context, [])


class TestMaterialize:
    def test_materializes_into_local_store(self, context):
        scan = WrapperScan("s", context, "ord")
        mat = Materialize("m", context, scan, result_name="ord_copy")
        mat.open()
        rows = list(iterate(mat))
        mat.close()
        stored = context.local_store.get("ord_copy")
        assert stored.cardinality == len(rows) == 3
