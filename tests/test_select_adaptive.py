"""Adaptive predicate ordering in the Select batch evaluator.

The batch evaluator tracks each predicate's observed selectivity and
periodically re-sorts the compiled conjunction most-selective-first
(:data:`~repro.engine.operators.select.REORDER_INTERVAL_BATCHES`).  On a
skewed workload — a cheap, unselective predicate written first and a highly
selective one written last — the adaptive order must converge to running the
selective predicate first, cutting comparator calls without changing results.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan import WrapperScan
from repro.engine.operators.select import REORDER_INTERVAL_BATCHES, Select
from repro.network.profiles import lan
from repro.network.source import DataSource
from repro.query.conjunctive import SelectionPredicate

from helpers import make_relation, multiset, watch_threshold

ROWS = 4000

#: Written order: the wide predicate first (passes ~99%), the narrow one last
#: (passes ~1%) — the worst case for a static evaluator.
PREDICATES = [
    SelectionPredicate("item", "qty", "<", 99),   # wide: ~99% pass
    SelectionPredicate("item", "grade", "=", 0),  # narrow: ~1% pass
]


@pytest.fixture
def catalog():
    items = make_relation(
        "item",
        ["sku:int", "qty:int", "grade:int"],
        [(i, i % 100, i % 100) for i in range(ROWS)],
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("item", items, lan()))
    return catalog


def run_select(catalog, adaptive: bool, batch_size: int = 64, watched: bool = False):
    context = ExecutionContext(catalog)
    if watched:
        # A scan watched by an opaque rule cuts its batches at every row.
        watch_threshold(context, "scan_item")
    select = Select(
        "sel",
        context,
        WrapperScan("scan_item", context, "item"),
        list(PREDICATES),
        adaptive=adaptive,
    )
    select.open()
    rows = []
    while True:
        batch = select.next_batch(batch_size)
        if not batch:
            break
        rows.extend(batch)
        context.batch_interrupt = False
    select.close()
    return select, rows


class TestAdaptivePredicateOrdering:
    def test_adaptive_beats_static_order_on_skew(self, catalog):
        static, static_rows = run_select(catalog, adaptive=False)
        adaptive, adaptive_rows = run_select(catalog, adaptive=True)
        assert multiset(adaptive_rows) == multiset(static_rows)
        assert len(adaptive_rows) == ROWS // 100
        assert adaptive.reorder_count >= 1
        # The static order scans the wide predicate's column for every row;
        # after the first re-sort the adaptive order runs the narrow
        # predicate first, so the wide one only sees its ~1% survivors.
        assert adaptive.comparator_calls < static.comparator_calls * 0.7, (
            f"adaptive={adaptive.comparator_calls} static={static.comparator_calls}"
        )

    def test_adaptive_converges_to_selective_first(self, catalog):
        select, _ = run_select(catalog, adaptive=True)
        # After convergence the compiled order leads with the narrow
        # (grade=0) predicate: its bound column index is the grade column.
        schema_index = select.child.output_schema.index_of("item.grade")
        assert select._compiled[0][0] == schema_index

    def test_watched_scan_drive_adapts_too(self, catalog):
        static, static_rows = run_select(catalog, adaptive=False, watched=True)
        adaptive, adaptive_rows = run_select(catalog, adaptive=True, watched=True)
        assert multiset(adaptive_rows) == multiset(static_rows)
        assert len(adaptive_rows) == ROWS // 100
        assert adaptive.comparator_calls < static.comparator_calls

    def test_unsatisfiable_conjunction_runs_no_comparator(self, catalog):
        """A predicate over an absent attribute passes nothing: no comparator
        runs, not even the valid predicates written before it, and every
        input batch still counts toward the re-sort cadence."""
        context = ExecutionContext(catalog)
        predicates = [PREDICATES[0], SelectionPredicate("item", "absent", "=", 0)]
        select = Select(
            "sel", context, WrapperScan("scan_item", context, "item"), predicates
        )
        select.open()
        pulled = []
        next_batch = select.child.next_batch

        def counted(max_rows):
            pulled.append(next_batch(max_rows))
            return pulled[-1]

        select.child.next_batch = counted
        assert not select.next_batch(64)
        select.close()
        assert select.comparator_calls == 0
        assert sum(len(batch) for batch in pulled) == ROWS
        assert select._batches_seen == sum(1 for batch in pulled if batch)

    def test_reorder_interval_respected(self, catalog):
        select, _ = run_select(catalog, adaptive=True, batch_size=64)
        batches = ROWS // 64 + 1
        assert select.reorder_count <= batches // REORDER_INTERVAL_BATCHES + 1

    def test_results_stable_across_batch_sizes(self, catalog):
        baseline = None
        for batch_size in (3, 64, 512):
            _, rows = run_select(catalog, adaptive=True, batch_size=batch_size)
            counts = multiset(rows)
            if baseline is None:
                baseline = counts
            else:
                assert counts == baseline


DICT_ROWS = 2000
DICT_DISTINCT = 8


@pytest.fixture
def string_catalog():
    items = make_relation(
        "item",
        ["sku:int", "color:str"],
        [(i, f"color{i % DICT_DISTINCT}") for i in range(DICT_ROWS)],
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("item", items, lan()))
    return catalog


def run_string_select(catalog, batch_size: int = 256):
    context = ExecutionContext(catalog)
    select = Select(
        "sel",
        context,
        WrapperScan("scan_item", context, "item"),
        [SelectionPredicate("item", "color", "=", "color3")],
        adaptive=False,
    )
    select.open()
    rows = []
    while True:
        batch = select.next_batch(batch_size)
        if not batch:
            break
        rows.extend(batch)
    select.close()
    return select, rows


class TestDictionaryAwareSelect:
    """String predicates evaluate once per distinct dictionary entry."""

    def test_comparator_runs_once_per_distinct_value(self, string_catalog):
        select, rows = run_string_select(string_catalog)
        assert sorted(row.values for row in rows) == [
            (i, "color3") for i in range(DICT_ROWS) if i % DICT_DISTINCT == 3
        ]
        # One comparator call per distinct dictionary entry, ever — not per row.
        assert select.comparator_calls == DICT_DISTINCT

    def test_mask_is_memoized_across_batches(self, string_catalog):
        # Many small batches over the same dictionary: the memoized mask
        # serves every batch without re-evaluating already-seen entries.
        select, rows = run_string_select(string_catalog, batch_size=16)
        assert len(rows) == DICT_ROWS // DICT_DISTINCT
        assert select.comparator_calls == DICT_DISTINCT

    def test_selectivity_counters_stay_row_based(self, string_catalog):
        select, _ = run_string_select(string_catalog)
        tested, passed = select._observed[0]
        assert tested == DICT_ROWS
        assert passed == DICT_ROWS // DICT_DISTINCT
