"""Batch/tuple parity: every operator yields the same rows in every drive.

Property-style tests asserting that each operator produces an identical
multiset of rows across the three drive modes — columnar batches
(``next_batch`` with struct-of-arrays :class:`Batch` objects, the default),
row-backed batches (``columnar_batches=False``, PR 1's drive), and
tuple-at-a-time (repeated ``next``) — across several batch sizes and both the
tiny joinable catalog and the TPC-D catalog, including the memory-overflow
paths of both hash joins, the dependent and nested-loops joins (duplicate-key
and empty-probe paths), and the rule-driven collector-switch path.

The two batch drives must also agree on the virtual clock *exactly* (they
differ only in data representation); the tuple drive is held to a tolerance,
since batching coarsens the CPU/wait interleave by a few percent.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.core.policies import apply_policy, race_policy
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionStatus, QueryExecutor
from repro.engine.operators.collector import DynamicCollector
from repro.engine.operators.joins.dependent import DependentJoin
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.joins.nested_loops import NestedLoopsJoin
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.project import Project
from repro.engine.operators.scan import TableScan, WrapperScan
from repro.engine.operators.select import Select
from repro.engine.operators.union import Union
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import OverflowMethod, collector, join, wrapper_scan
from repro.query.conjunctive import SelectionPredicate

from helpers import make_relation, multiset

BATCH_SIZES = [1, 3, 7, 64, 512]

#: Relative tolerance for tuple-drive vs batch-drive completion times.
TUPLE_TIME_TOLERANCE = 0.10


def drain_tuple(operator):
    operator.open()
    rows = list(operator.iterate())
    operator.close()
    return rows


def drain_batch(operator, batch_size):
    operator.open()
    rows = []
    while True:
        batch = operator.next_batch(batch_size)
        if not batch:
            break
        assert len(batch) <= batch_size
        rows.extend(batch)
    operator.close()
    return rows


def assert_parity(build_tree, catalog, batch_size):
    """Drive three identical trees (fresh contexts per mode) and compare.

    Asserts identical row multisets for the tuple, row-batch, and columnar
    drives, identical clocks for the two batch drives, and clocks within
    :data:`TUPLE_TIME_TOLERANCE` of the tuple drive.
    """
    tuple_context = ExecutionContext(catalog)
    reference = drain_tuple(build_tree(tuple_context))

    rows_context = ExecutionContext(catalog, config=EngineConfig(columnar_batches=False))
    row_batched = drain_batch(build_tree(rows_context), batch_size)

    columnar_context = ExecutionContext(catalog)
    assert columnar_context.columnar
    columnar = drain_batch(build_tree(columnar_context), batch_size)

    assert multiset(row_batched) == multiset(reference)
    assert multiset(columnar) == multiset(reference)
    assert columnar_context.clock.now == pytest.approx(
        rows_context.clock.now, rel=1e-9
    ), "columnar drive changed the virtual-time accounting"
    if tuple_context.clock.now > 0:
        assert columnar_context.clock.now == pytest.approx(
            tuple_context.clock.now, rel=TUPLE_TIME_TOLERANCE
        )


# -- operator trees over the tiny joinable catalog ----------------------------------------


def tree_wrapper_scan(context):
    return WrapperScan("scan_ord", context, "ord")


def tree_table_scan(context):
    stored = make_relation(
        "stored", ["k:int", "v:str"], [(i, f"v{i}") for i in range(100)]
    )
    context.local_store.materialize(stored)
    return TableScan("tscan", context, "stored")


def tree_select(context):
    scan = WrapperScan("scan_item", context, "item")
    return Select(
        "sel", context, scan, [SelectionPredicate("item", "i_qty", ">=", 2)]
    )


def tree_select_multi_predicate(context):
    # Two predicates with very different selectivities: the adaptive batch
    # evaluator may reorder them mid-stream, which must never change results.
    scan = WrapperScan("scan_item", context, "item")
    return Select(
        "sel_multi",
        context,
        scan,
        [
            SelectionPredicate("item", "i_qty", ">=", 1),
            SelectionPredicate("item", "i_order", "<", 10),
        ],
    )


def tree_select_unsatisfiable(context):
    scan = WrapperScan("scan_item", context, "item")
    return Select(
        "sel", context, scan, [SelectionPredicate("item", "no_such_attr", "=", 1)]
    )


def tree_project(context):
    scan = WrapperScan("scan_ord", context, "ord")
    return Project("proj", context, scan, ["ord.o_cust"])


def tree_union(context):
    return Union(
        "uni",
        context,
        [
            WrapperScan("scan_a", context, "ord"),
            WrapperScan("scan_b", context, "ord2"),
        ],
    )


def tree_hybrid(context):
    return HybridHashJoin(
        "hh",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_nested_loops(context):
    return NestedLoopsJoin(
        "nl",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_nested_loops_dup_keys(context):
    # Outer side with duplicate keys and keys missing from the inner: the
    # items' i_order values repeat (i % 180 over 300 rows) and values 150-179
    # have no matching order — both the multi-match and no-match paths.
    return NestedLoopsJoin(
        "nl2",
        context,
        WrapperScan("scan_item", context, "item"),
        WrapperScan("scan_ord", context, "ord"),
        ["item.i_order"],
        ["ord.o_id"],
    )


def tree_dependent(context):
    # Unique bind keys: one probe per left tuple, all keys match.
    return DependentJoin(
        "dj",
        context,
        WrapperScan("scan_ord", context, "ord"),
        "item",
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_dependent_dup_keys(context):
    # Duplicate bind keys (memoized probes) and empty probes (i_order 150-179
    # have no matching o_id).
    return DependentJoin(
        "dj2",
        context,
        WrapperScan("scan_item", context, "item"),
        "ord",
        ["item.i_order"],
        ["ord.o_id"],
    )


def tree_dependent_no_memo(context):
    # Same shape with the probe memo disabled: every duplicate key re-probes.
    return DependentJoin(
        "dj3",
        context,
        WrapperScan("scan_item", context, "item"),
        "ord",
        ["item.i_order"],
        ["ord.o_id"],
        probe_cache=False,
    )


def tree_materialize(context):
    scan = WrapperScan("scan_ord", context, "ord")
    return Materialize("mat", context, scan, result_name="mat_out")


def tree_dpj(context):
    return DoublePipelinedJoin(
        "dpj",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


JOINABLE_TREES = {
    "wrapper_scan": tree_wrapper_scan,
    "table_scan": tree_table_scan,
    "select": tree_select,
    "select_multi_predicate": tree_select_multi_predicate,
    "select_unsatisfiable": tree_select_unsatisfiable,
    "project": tree_project,
    "union": tree_union,
    "hybrid_hash": tree_hybrid,
    "nested_loops": tree_nested_loops,
    "nested_loops_dup_keys": tree_nested_loops_dup_keys,
    "dependent": tree_dependent,
    "dependent_dup_keys": tree_dependent_dup_keys,
    "dependent_no_memo": tree_dependent_no_memo,
    "materialize": tree_materialize,
    "double_pipelined": tree_dpj,
}


@pytest.fixture
def parity_catalog():
    """Joinable catalog with enough rows to fill several batches."""
    orders = make_relation(
        "ord", ["o_id:int", "o_cust:str"], [(i, f"cust{i % 17}") for i in range(150)]
    )
    orders2 = make_relation(
        "ord", ["o_id:int", "o_cust:str"], [(i + 500, f"cust{i % 5}") for i in range(40)]
    )
    items = make_relation(
        "item",
        ["i_order:int", "i_sku:str", "i_qty:int"],
        [(i % 180, f"sku{i}", i % 7) for i in range(300)],
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("ord", orders, lan()))
    catalog.register_source(DataSource("ord2", orders2, lan()))
    catalog.register_source(DataSource("item", items, lan()))
    return catalog


@pytest.mark.parametrize("tree_name", sorted(JOINABLE_TREES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_operator_parity_on_joinable_catalog(parity_catalog, tree_name, batch_size):
    assert_parity(JOINABLE_TREES[tree_name], parity_catalog, batch_size)


# -- composite keys: two-column equi-joins through every join ------------------------------
#
# One-column keys are bare values and composite keys tuples (PR 18); the trees
# above cover the first form, these the second — where either column alone
# would over-match, so a key cut to its first column shows.

TWO_COLUMN_LEFT = [(i % 10, f"g{i % 3}", i) for i in range(120)]
TWO_COLUMN_RIGHT = [(i % 10, f"g{i % 4}", 1000 + i) for i in range(90)]

TWO_COLUMN_JOINS = {
    "hybrid_hash": HybridHashJoin,
    "double_pipelined": DoublePipelinedJoin,
    "nested_loops": NestedLoopsJoin,
}


@pytest.fixture
def two_column_catalog():
    catalog = DataSourceCatalog()
    for name, values in (("tl", TWO_COLUMN_LEFT), ("tr", TWO_COLUMN_RIGHT)):
        relation = make_relation(name, ["a:int", "b:str", "n:int"], values)
        catalog.register_source(DataSource(name, relation, lan()))
    return catalog


def two_column_pairs() -> dict:
    pairs: dict = {}
    for left in TWO_COLUMN_LEFT:
        for right in TWO_COLUMN_RIGHT:
            if left[:2] == right[:2]:
                pairs[left + right] = pairs.get(left + right, 0) + 1
    return pairs


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("implementation", sorted(TWO_COLUMN_JOINS) + ["dependent"])
def test_two_column_join_parity(two_column_catalog, implementation, batch_size):
    def build(context):
        left = WrapperScan("scan_l", context, "tl")
        keys = (["tl.a", "tl.b"], ["tr.a", "tr.b"])
        if implementation == "dependent":
            return DependentJoin("join", context, left, "tr", *keys)
        right = WrapperScan("scan_r", context, "tr")
        return TWO_COLUMN_JOINS[implementation]("join", context, left, right, *keys)

    assert_parity(build, two_column_catalog, batch_size)
    rows = drain_batch(build(ExecutionContext(two_column_catalog)), batch_size)
    assert multiset(rows) == two_column_pairs()


@pytest.mark.parametrize("batch_size", [7, 64])
@pytest.mark.parametrize(
    "implementation, method",
    [
        ("double_pipelined", OverflowMethod.LEFT_FLUSH),
        ("double_pipelined", OverflowMethod.SYMMETRIC_FLUSH),
        ("hybrid_hash", None),
    ],
)
def test_two_column_join_spill_parity(two_column_catalog, implementation, method, batch_size):
    """Composite keys through the bucket code: routing, flushes, the spill join."""
    options = {"overflow_method": method} if method is not None else {}

    def build(context):
        return TWO_COLUMN_JOINS[implementation](
            "join", context, WrapperScan("scan_l", context, "tl"),
            WrapperScan("scan_r", context, "tr"), ["tl.a", "tl.b"], ["tr.a", "tr.b"],
            memory_limit_bytes=1500, bucket_count=8, **options,
        )

    reference = drain_tuple(build(ExecutionContext(two_column_catalog)))
    assert multiset(reference) == two_column_pairs()
    row_rows, row_ctx, row_join = drain_batch_with_context(
        build, two_column_catalog, batch_size, columnar=False
    )
    col_rows, col_ctx, col_join = drain_batch_with_context(
        build, two_column_catalog, batch_size, columnar=True
    )
    assert multiset(row_rows) == multiset(col_rows) == multiset(reference)
    assert col_ctx.stats.operator("join").overflow_events > 0
    for counter in ("tuples_written", "bytes_written", "tuples_read"):
        assert getattr(row_ctx.disk.stats, counter) == getattr(col_ctx.disk.stats, counter) > 0
    assert col_ctx.clock.now == pytest.approx(row_ctx.clock.now, rel=1e-9)
    assert_budget_invariant(row_join)
    assert_budget_invariant(col_join)


# -- overflow paths (tiny memory budgets force bucket spills) -------------------------------


def assert_budget_invariant(join_operator) -> None:
    """budget.used must equal the sum of the operator's tables' resident bytes."""
    tables = (
        join_operator._tables
        if hasattr(join_operator, "_tables") and join_operator._tables
        else [join_operator._inner_table]
    )
    resident = sum(table.resident_bytes for table in tables if table is not None)
    assert join_operator.budget.used_bytes == resident, (
        f"accounting drift: budget says {join_operator.budget.used_bytes}B, "
        f"tables hold {resident}B"
    )


def watch_overflow_resolutions(monkeypatch, check):
    """Assert ``check`` after every DPJ overflow resolution (mid-batch flushes)."""
    original = DoublePipelinedJoin._resolve_overflow

    def checked(self):
        original(self)
        check(self)

    monkeypatch.setattr(DoublePipelinedJoin, "_resolve_overflow", checked)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_overflow_parity(tpcd_catalog, tiny_tpcd, method, batch_size, monkeypatch):
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
            overflow_method=method,
        )

    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)
    reference = drain_tuple(build(ExecutionContext(tpcd_catalog)))

    context = ExecutionContext(tpcd_catalog)
    joined = build(context)
    rows = drain_batch(joined, batch_size)
    assert joined.overflow_count > 0, "memory budget was meant to force spills"
    assert multiset(rows) == multiset(reference)
    assert_budget_invariant(joined)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_hybrid_overflow_parity(tpcd_catalog, tiny_tpcd, batch_size):
    def build(context):
        return HybridHashJoin(
            "hh",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["part"]) * 20,
            bucket_count=8,
        )

    reference = drain_tuple(build(ExecutionContext(tpcd_catalog)))

    context = ExecutionContext(tpcd_catalog)
    joined = build(context)
    rows = drain_batch(joined, batch_size)
    assert context.stats.operator("hh").overflow_events > 0
    assert multiset(rows) == multiset(reference)
    assert_budget_invariant(joined)


# -- spill parity: columnar vs row-batch drives under memory pressure ----------------------
#
# The hash tables, memory accounting, and spill files are columnar in every
# drive; the two batch drives differ only in how tuples reach them, so their
# result multisets, overflow events, spilled-tuple counts, and virtual clocks
# must all agree *exactly* (and match the tuple drive's result multiset).
# Column *encoding* (dictionary strings + RLE arrivals) is orthogonal to the
# drive — it also lives in the storage layer — so the same parity must hold
# with encoding on and off; both are parametrized below.


def drain_batch_with_context(build_tree, catalog, batch_size, columnar, encoded=True):
    config = EngineConfig(columnar_batches=columnar, encoded_columns=encoded)
    context = ExecutionContext(catalog, config=config)
    operator = build_tree(context)
    rows = drain_batch(operator, batch_size)
    return rows, context, operator


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64])
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_spill_drive_parity(
    tpcd_catalog, tiny_tpcd, method, batch_size, encoded, monkeypatch
):
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
            overflow_method=method,
        )

    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)
    tuple_config = EngineConfig(encoded_columns=encoded)
    reference = drain_tuple(build(ExecutionContext(tpcd_catalog, config=tuple_config)))

    row_rows, row_ctx, row_join = drain_batch_with_context(
        build, tpcd_catalog, batch_size, columnar=False, encoded=encoded
    )
    col_rows, col_ctx, col_join = drain_batch_with_context(
        build, tpcd_catalog, batch_size, columnar=True, encoded=encoded
    )
    assert multiset(row_rows) == multiset(reference)
    assert multiset(col_rows) == multiset(reference)
    assert row_join.overflow_count == col_join.overflow_count > 0
    assert row_ctx.disk.stats.tuples_written == col_ctx.disk.stats.tuples_written
    assert row_ctx.disk.stats.bytes_written == col_ctx.disk.stats.bytes_written
    assert row_ctx.disk.stats.tuples_read == col_ctx.disk.stats.tuples_read
    assert col_ctx.clock.now == pytest.approx(row_ctx.clock.now, rel=1e-9), (
        "columnar spill changed the virtual-time accounting"
    )
    assert_budget_invariant(row_join)
    assert_budget_invariant(col_join)


def test_encoding_reduces_spilled_bytes_on_string_keys(tpcd_catalog, tiny_tpcd):
    """Encoded spill of a string-heavy build writes measurably fewer bytes."""
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
        )

    _, plain_ctx, _ = drain_batch_with_context(
        build, tpcd_catalog, 64, columnar=True, encoded=False
    )
    _, enc_ctx, _ = drain_batch_with_context(
        build, tpcd_catalog, 64, columnar=True, encoded=True
    )
    assert plain_ctx.disk.stats.tuples_written > 0
    # Same allotment: the encoded run keeps more rows resident (fewer
    # spilled tuples) and each spilled tuple moves fewer bytes (part
    # carries three string attributes); the ≥1.5x ratio bar on a fully
    # string-keyed workload lives in benchmarks/bench_encoding_pipeline.py.
    assert enc_ctx.disk.stats.tuples_written < plain_ctx.disk.stats.tuples_written
    assert enc_ctx.disk.stats.bytes_written < plain_ctx.disk.stats.bytes_written
    plain_per_tuple = (
        plain_ctx.disk.stats.bytes_written / plain_ctx.disk.stats.tuples_written
    )
    enc_per_tuple = (
        enc_ctx.disk.stats.bytes_written / enc_ctx.disk.stats.tuples_written
    )
    assert enc_per_tuple < plain_per_tuple


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64])
def test_hybrid_spill_drive_parity(tpcd_catalog, tiny_tpcd, batch_size, encoded):
    def build(context):
        return HybridHashJoin(
            "hh",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["part"]) * 20,
            bucket_count=8,
        )

    tuple_config = EngineConfig(encoded_columns=encoded)
    reference = drain_tuple(build(ExecutionContext(tpcd_catalog, config=tuple_config)))

    row_rows, row_ctx, row_join = drain_batch_with_context(
        build, tpcd_catalog, batch_size, columnar=False, encoded=encoded
    )
    col_rows, col_ctx, col_join = drain_batch_with_context(
        build, tpcd_catalog, batch_size, columnar=True, encoded=encoded
    )
    assert multiset(row_rows) == multiset(reference)
    assert multiset(col_rows) == multiset(reference)
    assert (
        row_ctx.stats.operator("hh").overflow_events
        == col_ctx.stats.operator("hh").overflow_events
        > 0
    )
    assert row_ctx.disk.stats.tuples_written == col_ctx.disk.stats.tuples_written
    assert row_ctx.disk.stats.bytes_written == col_ctx.disk.stats.bytes_written
    assert row_ctx.disk.stats.tuples_read == col_ctx.disk.stats.tuples_read
    assert col_ctx.clock.now == pytest.approx(row_ctx.clock.now, rel=1e-9), (
        "columnar spill changed the virtual-time accounting"
    )
    assert_budget_invariant(row_join)
    assert_budget_invariant(col_join)


def test_hybrid_mixed_callers_mid_overflow_pass(tpcd_catalog, tiny_tpcd):
    """Switching from batch to tuple pulls mid-overflow-pass must not duplicate.

    A batch caller can start the columnar overflow pass; a tuple caller on
    the same operator must drain that iterator rather than restart the row
    pass (which would re-read the spill files and re-emit pairs).
    """
    def build(context):
        return HybridHashJoin(
            "hh",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["part"]) * 20,
            bucket_count=8,
        )

    reference = drain_tuple(build(ExecutionContext(tpcd_catalog)))

    context = ExecutionContext(tpcd_catalog)
    joined = build(context)
    joined.open()
    rows = []
    switched = False
    while True:
        if not switched:
            batch = joined.next_batch(64)
            if not batch:
                break
            rows.extend(batch)
            # As soon as the columnar overflow pass has begun, switch to
            # tuple-at-a-time pulls for the remainder.
            if joined._overflow_batches is not None:
                switched = True
        else:
            row = joined.next()
            if row is None:
                break
            rows.append(row)
    joined.close()
    assert switched, "memory budget was meant to force an overflow pass"
    assert multiset(rows) == multiset(reference)


# -- TPC-D catalog parity for the hot tree shapes ------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 64, 512])
@pytest.mark.parametrize("implementation", ["hybrid", "dpj"])
def test_tpcd_join_parity(tpcd_catalog, implementation, batch_size):
    def build(context):
        left = WrapperScan("scan_ps", context, "partsupp")
        right = WrapperScan("scan_p", context, "part")
        cls = HybridHashJoin if implementation == "hybrid" else DoublePipelinedJoin
        return cls(
            "j", context, left, right, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )

    assert_parity(build, tpcd_catalog, batch_size)


# -- collector parity, including the rule-driven switch path -------------------------------


@pytest.fixture
def mirror_catalog():
    books = make_relation(
        "bib", ["isbn:int", "title:str"], [(i, f"book{i}") for i in range(60)]
    )
    catalog = DataSourceCatalog()
    primary = DataSource("bib-main", books, lan())
    catalog.register_source(primary)
    catalog.register_source(make_mirror(primary, "bib-mirror", wide_area()))
    catalog.register_source(make_mirror(primary, "bib-partial", lan(), coverage=0.6, seed=2))
    return catalog


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("dedup", [None, ["bib.isbn"]])
def test_collector_parity(mirror_catalog, dedup, batch_size):
    def build(context):
        children = [
            WrapperScan(f"scan_{name}", context, name)
            for name in ["bib-main", "bib-mirror", "bib-partial"]
        ]
        return DynamicCollector("coll", context, children, dedup_keys=dedup)

    assert_parity(build, mirror_catalog, batch_size)


def _race_plan():
    """A collector under a race policy: threshold rules deactivate the loser."""
    children = [
        wrapper_scan("bib-main", operator_id="scan_main"),
        wrapper_scan("bib-mirror", operator_id="scan_mirror"),
        wrapper_scan("bib-partial", operator_id="scan_partial"),
    ]
    spec = collector(children, operator_id="coll1")
    spec.params["dedup_keys"] = ["bib.isbn"]
    policy = race_policy(spec, threshold=10, racers=2)
    rules = apply_policy(spec, policy)
    fragment = Fragment(fragment_id="f1", root=spec, result_name="answer")
    fragment.rules = rules
    return QueryPlan(query_name="race", fragments=[fragment], answer_name="answer")


def _run_plan(catalog, batch_size):
    context = ExecutionContext(catalog, query_name="race")
    executor = QueryExecutor(context, batch_size=batch_size)
    outcome = executor.execute(_race_plan())
    assert outcome.status == ExecutionStatus.COMPLETED
    return outcome, context


@pytest.mark.parametrize("batch_size", [2, 16, 256])
def test_executor_collector_switch_parity(mirror_catalog, batch_size):
    """The race policy must fire at the same tuple under both drive modes."""
    reference, ref_context = _run_plan(mirror_catalog, batch_size=None)
    batched, batch_context = _run_plan(mirror_catalog, batch_size=batch_size)
    assert multiset(batched.answer) == multiset(reference.answer)
    assert batched.stats.rules_fired == reference.stats.rules_fired
    ref_collector = ref_context.operator("coll1")
    batch_collector = batch_context.operator("coll1")
    assert batch_collector.tuples_per_child == ref_collector.tuples_per_child


@pytest.mark.parametrize("batch_size", [2, 64])
def test_executor_join_plan_parity(tpcd_catalog, batch_size):
    """Whole-plan parity on a TPC-D join fragment under both drive modes."""
    def run(mode):
        context = ExecutionContext(tpcd_catalog, query_name="q")
        plan = QueryPlan(
            query_name="q",
            fragments=[
                Fragment(
                    fragment_id="f1",
                    root=join(
                        wrapper_scan("partsupp", operator_id="s_ps"),
                        wrapper_scan("part", operator_id="s_p"),
                        ["partsupp.ps_partkey"],
                        ["part.p_partkey"],
                        operator_id="j1",
                    ),
                    result_name="answer",
                )
            ],
            answer_name="answer",
        )
        return QueryExecutor(context, batch_size=mode).execute(plan)

    reference = run(None)
    batched = run(batch_size)
    assert reference.status == ExecutionStatus.COMPLETED
    assert batched.status == ExecutionStatus.COMPLETED
    assert multiset(batched.answer) == multiset(reference.answer)
    assert batched.stats.output_timeline.total == reference.stats.output_timeline.total
