"""Unit tests for the dynamic collector operator."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.operators.collector import DynamicCollector
from repro.engine.operators.scan import WrapperScan
from repro.errors import ExecutionError
from repro.network.profiles import dead, lan, slow_start, wide_area
from repro.network.source import DataSource, make_mirror
from repro.plan.rules import EventType

from helpers import (
    contacted_children,
    drain,
    iterate,
    make_relation,
    next_row,
    read_rows,
    watch_threshold,
)


@pytest.fixture
def bib_catalog():
    """Three overlapping bibliography sources: primary, full mirror, partial mirror."""
    books = make_relation(
        "bib", ["isbn:int", "title:str"], [(i, f"book{i}") for i in range(20)]
    )
    catalog = DataSourceCatalog()
    primary = DataSource("bib-main", books, lan())
    catalog.register_source(primary)
    catalog.register_source(make_mirror(primary, "bib-mirror", wide_area()))
    catalog.register_source(make_mirror(primary, "bib-partial", lan(), coverage=0.6, seed=2))
    return catalog


def make_collector(context, sources, **kwargs):
    children = [WrapperScan(f"scan_{name}", context, name) for name in sources]
    return DynamicCollector("coll1", context, children, **kwargs)


class TestBasicUnion:
    def test_contact_all_without_dedup_returns_bag_union(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(context, ["bib-main", "bib-mirror"], dedup_keys=None)
        collector.open()
        rows = list(iterate(collector))
        assert len(rows) == 40

    def test_dedup_suppresses_mirror_duplicates(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=["bib.isbn"]
        )
        collector.open()
        rows = list(iterate(collector))
        assert len(rows) == 20
        assert len({row["isbn"] for row in rows}) == 20

    def test_requires_children(self, joinable_catalog):
        context = ExecutionContext(joinable_catalog)
        with pytest.raises(ExecutionError):
            DynamicCollector("coll", context, [])

    def test_duplicate_child_ids_rejected(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        child_a = WrapperScan("same", context, "bib-main")
        child_b = WrapperScan("same2", context, "bib-mirror")
        child_b.operator_id = "same"
        with pytest.raises(ExecutionError):
            DynamicCollector("coll", context, [child_a, child_b])

    def test_unknown_initially_active_rejected(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        with pytest.raises(ExecutionError):
            make_collector(context, ["bib-main"], initially_active=["ghost"])


class TestPolicyBehaviour:
    def test_initially_active_limits_contacted_sources(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            initially_active=["scan_bib-main"],
            dedup_keys=["bib.isbn"],
        )
        collector.open()
        rows = list(iterate(collector))
        assert len(rows) == 20
        assert contacted_children(collector) == ["scan_bib-main"]
        # The mirror's source was never opened.
        assert bib_catalog.source("bib-mirror").stats.connections_opened == 0

    def test_fallback_activated_when_primary_dead(self, bib_catalog):
        bib_catalog.source("bib-main").set_profile(dead())
        context = ExecutionContext(bib_catalog)
        context.config.default_timeout_ms = 1_000.0
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            initially_active=["scan_bib-main"],
            dedup_keys=["bib.isbn"],
        )
        collector.open()
        rows = list(iterate(collector))
        bib_catalog.source("bib-main").set_profile(lan())
        assert len(rows) == 20
        assert "scan_bib-mirror" in contacted_children(collector)

    def test_no_fallback_when_disabled(self, bib_catalog):
        bib_catalog.source("bib-main").set_profile(dead())
        context = ExecutionContext(bib_catalog)
        context.config.default_timeout_ms = 100.0
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            initially_active=["scan_bib-main"],
            fallback_on_failure=False,
        )
        collector.open()
        rows = list(iterate(collector))
        bib_catalog.source("bib-main").set_profile(lan())
        assert rows == []

    def test_partial_mirror_fallback_returns_subset(self, bib_catalog):
        bib_catalog.source("bib-main").set_profile(dead())
        context = ExecutionContext(bib_catalog)
        context.config.default_timeout_ms = 1_000.0
        collector = make_collector(
            context,
            ["bib-main", "bib-partial"],
            initially_active=["scan_bib-main"],
            dedup_keys=["bib.isbn"],
        )
        collector.open()
        rows = list(iterate(collector))
        bib_catalog.source("bib-main").set_profile(lan())
        assert 0 < len(rows) < 20

    def test_deactivate_child_stops_reading_it(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=None
        )
        collector.open()
        next_row(collector)
        collector.deactivate_child("scan_bib-mirror")
        rows = [next_row(collector) for _ in range(100)]
        rows = [r for r in rows if r is not None]
        # Only the primary's remaining tuples are returned after deactivation.
        assert collector.tuples_per_child["scan_bib-mirror"] <= 1

    def test_activate_child_midway(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            initially_active=["scan_bib-main"],
            dedup_keys=None,
        )
        collector.open()
        next_row(collector)
        collector.activate_child("scan_bib-mirror")
        list(iterate(collector))
        assert collector.tuples_per_child["scan_bib-mirror"] == 20

    def test_threshold_events_emitted_per_child(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        # A rule that must see every count: the child reports each row, once.
        watch_threshold(context, "scan_bib-main")
        collector = make_collector(context, ["bib-main"], dedup_keys=None)
        collector.open()
        list(iterate(collector))
        events = drain(context.events)
        values = [
            e.value for e in events
            if e.event_type == EventType.THRESHOLD and e.subject == "scan_bib-main"
        ]
        assert values == list(range(1, 21))

    def test_prefers_faster_source_first(self, bib_catalog):
        bib_catalog.source("bib-mirror").set_profile(slow_start(delay_ms=5_000.0))
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=["bib.isbn"]
        )
        collector.open()
        rows = list(iterate(collector))
        bib_catalog.source("bib-mirror").set_profile(wide_area())
        assert len(rows) == 20
        # Everything useful came from the fast source; the slow mirror
        # contributed only duplicates (if it was read at all).
        assert collector.tuples_per_child["scan_bib-main"] == 20


class TestDedupAccounting:
    """The dedup key set is byte-accounted against a pool-granted budget."""

    def test_seen_keys_charge_the_collector_budget(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=["bib.isbn"]
        )
        collector.open()
        rows = list(iterate(collector))
        assert len(rows) == 20
        # 20 distinct keys, each charged the estimated key footprint.
        assert collector.budget.used_bytes == 20 * collector._dedup_key_bytes()
        # The budget is observable through the rule-condition protocol.
        assert context.operator_memory("coll1") == collector.budget.used_bytes
        collector.close()
        assert collector.budget.used_bytes == 0

    def test_batch_drive_charges_identically(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=["bib.isbn"]
        )
        collector.open()
        produced = 0
        while True:
            batch = collector.next_batch(16)
            if not batch:
                break
            produced += len(batch)
        assert produced == 20
        assert collector.budget.used_bytes == 20 * collector._dedup_key_bytes()

    def test_no_dedup_means_no_charges(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(context, ["bib-main"], dedup_keys=None)
        collector.open()
        list(iterate(collector))
        assert collector.budget.used_bytes == 0

    def test_columnar_dedup_filters_with_index_take(self, bib_catalog):
        """The batch path dedups from column slices, boxing no rows."""
        from repro.storage.tuples import counting_row_constructions

        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror"], dedup_keys=["bib.isbn"]
        )
        collector.open()
        # Drain the fast (LAN) primary first so the mirror's rows are all
        # duplicates filtered by the batch path.
        seen = 0
        with counting_row_constructions() as counter:
            while True:
                batch = collector.next_batch(64)
                if not batch:
                    break
                seen += len(batch)
            boxed = counter.count
        assert seen == 20
        # The wide-area mirror's 20 rows were dropped by the index-take: the
        # only boxing allowed is the tie-break single-row fallback, never one
        # Row per filtered tuple... the batch path pulls whole bounded runs.
        assert boxed < 20


class TestDedupSpill:
    """A bounded (or revoked) dedup budget spills the key set to disk."""

    def test_bounded_budget_spills_and_dedup_stays_exact(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            dedup_keys=["bib.isbn"],
            dedup_budget_bytes=200,  # a handful of keys
        )
        collector.open()
        produced = 0
        while True:
            batch = collector.next_batch(16)
            if not batch:
                break
            produced += len(batch)
        # Duplicate suppression is exact despite the spills.
        assert produced == 20
        assert collector.dedup_spills >= 1
        assert collector._spilled_key_count >= 1
        # The resident set was released on every spill: usage stays bounded
        # (at most the keys remembered since the last spill).
        assert collector.budget.used_bytes <= 200
        # The spilled keys went through the simulated disk and membership
        # scans re-read them with real I/O charges.
        assert context.disk.stats.tuples_written >= collector._spilled_key_count
        assert context.disk.stats.bytes_read > 0

    def test_results_match_unbounded_run(self, bib_catalog):
        def run(dedup_budget_bytes):
            context = ExecutionContext(bib_catalog)
            collector = make_collector(
                context,
                ["bib-main", "bib-mirror", "bib-partial"],
                dedup_keys=["bib.isbn"],
                dedup_budget_bytes=dedup_budget_bytes,
            )
            collector.open()
            rows = []
            while True:
                batch = collector.next_batch(32)
                if not batch:
                    break
                rows.extend(batch.rows())
            collector.close()
            return rows

        unbounded = run(None)
        spilled = run(150)
        assert {row["isbn"] for row in spilled} == {row["isbn"] for row in unbounded}
        assert len(spilled) == len(unbounded) == 20

    #: ``(spills, spilled keys, digest entries, budget bytes, bytes written, bytes
    #: read)`` at the parent of PR 18, when every dedup key was a tuple.
    PARENT_CHARGES = {
        ("one", "batch"): (4, 20, 20, 160, 212, 716),
        ("one", "tuple"): (4, 19, 19, 184, 203, 5262),
        ("two", "batch"): (8, 20, 20, 160, 1044, 3703),
        ("two", "tuple"): (10, 20, 20, 160, 1060, 28662),
    }

    @pytest.mark.parametrize("drive", ["batch", "tuple"])
    @pytest.mark.parametrize("arity", ["one", "two"])
    def test_key_form_moves_no_spill_charge(self, bib_catalog, arity, drive):
        """One-column dedup keys are bare values, composite keys tuples; the
        spilled chunk holds the key *columns* either way, and what is written,
        re-read and charged for the digest is what it was."""
        keys = ["bib.isbn"] if arity == "one" else ["bib.isbn", "bib.title"]
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context, ["bib-main", "bib-mirror", "bib-partial"],
            dedup_keys=keys, dedup_budget_bytes=200,
        )
        collector.open()
        if drive == "tuple":
            produced = len(list(iterate(collector)))
        else:
            produced = 0
            while batch := collector.next_batch(16):
                produced += len(batch)
        assert produced == 20
        stats = context.disk.stats
        assert (
            collector.dedup_spills, collector._spilled_key_count, len(collector._spilled_digest),
            collector.budget.used_bytes, stats.bytes_written, stats.bytes_read,
        ) == self.PARENT_CHARGES[arity, drive]
        expected = int if arity == "one" else tuple
        assert all(type(key) is expected for key in collector._seen_keys)
        spilled = [row.values for row, _ in read_rows(collector._spilled_keys_file, charge=False)]
        assert len(spilled) == len(set(spilled)) == collector._spilled_key_count
        assert all(len(values) == len(keys) and type(values[0]) is int for values in spilled)

    def test_tuple_path_consults_spilled_keys(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            dedup_keys=["bib.isbn"],
            dedup_budget_bytes=200,
        )
        collector.open()
        rows = list(iterate(collector))
        assert len(rows) == 20
        assert collector.dedup_spills >= 1

    def test_revocation_spills_immediately(self, bib_catalog):
        context = ExecutionContext(bib_catalog)
        collector = make_collector(
            context,
            ["bib-main", "bib-mirror"],
            dedup_keys=["bib.isbn"],
            dedup_budget_bytes=64 * 1024,
        )
        collector.open()
        first = collector.next_batch(8)
        assert first
        held = collector.budget.used_bytes
        assert held > 0
        # A broker-style revocation shrinks the allotment below usage: the
        # key set moves to disk at once instead of silently overstaying.
        collector.budget.revoke_to(64)
        assert collector.dedup_spills == 1
        # The key payloads left memory; only the per-key hash digest (which
        # lets fresh keys skip the spill-file scan) stays charged.
        from repro.engine.operators.collector import DEDUP_DIGEST_BYTES

        assert (
            collector.budget.used_bytes
            == collector._spilled_key_count * DEDUP_DIGEST_BYTES
        )
        # ...and the rest of the union still deduplicates exactly.
        produced = len(first)
        while True:
            batch = collector.next_batch(16)
            if not batch:
                break
            produced += len(batch)
        assert produced == 20
