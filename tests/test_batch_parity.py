"""Batch parity: every operator yields the rows the retired tuple drive did.

Each operator is driven in batches (``next_batch``, columnar wherever it has
a native columnar path) across several batch sizes, over both the tiny
joinable catalog and the TPC-D catalog — the memory-overflow paths of both
hash joins, the dependent and nested-loops joins (duplicate-key and
empty-probe paths), and the rule-driven collector-switch path included.
Its row multiset must equal the one the engine's tuple-at-a-time drive
produced (digests recorded on that drive's last commit, where both drives
agreed, or a naive join) and its virtual clock must equal, bit for bit, the
batch drive's clock on that commit.

Under memory pressure the hash joins are held *exactly*: against the
per-tuple reference (``helpers.per_tuple_reference``, their per-tuple
pipelines under the batch protocol) and against goldens recorded on the
engine's retired row-batch drive.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.core.policies import apply_policy, race_policy
from repro.engine.context import ExecutionContext
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

from helpers import (
    digest,
    make_relation,
    multiset,
    next_row,
    per_tuple_reference,
    reference_join,
    tpcd_dpj,
    tpcd_hybrid,
)

BATCH_SIZES = [1, 3, 7, 64, 512]


def multiset_digest(rows) -> str:
    """Order-free digest of a row multiset (how the goldens name an answer)."""
    return digest(sorted((repr(values), count) for values, count in multiset(rows).items()))


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


def assert_parity(build_tree, catalog, batch_size, golden):
    """Drive ``build_tree`` in batches and compare with ``golden``:
    ``(multiset digest, clocks)``, the clocks one per batch size of
    :data:`BATCH_SIZES` (or of the case's own list, in its order)."""
    context = ExecutionContext(catalog)
    rows = drain_batch(build_tree(context), batch_size)
    rows_digest, clocks = golden
    assert multiset_digest(rows) == rows_digest
    assert context.clock.now == clocks[batch_size]
    return rows


def goldens(sizes, recorded: dict) -> dict:
    """``{case: (digest, clocks)}`` with each clock tuple keyed by batch size."""
    return {case: (rows, dict(zip(sizes, clocks))) for case, (rows, clocks) in recorded.items()}


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


#: tree -> (multiset digest, batch clock per batch size of :data:`BATCH_SIZES`).
JOINABLE_GOLDENS = goldens(BATCH_SIZES, {
    "dependent": ("b3e4f16eb5bc614a", (769.3817499999964, 769.4612499999976, 769.6202500000004, 771.8860000000001, 775.0645)),
    "dependent_dup_keys": ("6a7b9789694f5430", (913.2884999999726, 913.37649999999, 913.5624999999966, 916.1644999999959, 926.8044999999961)),
    "dependent_no_memo": ("6a7b9789694f5430", (1518.0604999999894, 1518.1525000000095, 1518.3365000000047, 1520.958500000007, 1531.8145000000072)),
    "double_pipelined": ("b3e4f16eb5bc614a", (20.180000000000145, 20.17600000000025, 20.178000000000235, 20.158000000000243, 20.002000000000244)),
    "hybrid_hash": ("b3e4f16eb5bc614a", (21.139999999999528, 21.1360000000002, 21.128000000000107, 21.01400000000016, 20.60200000000016)),
    "materialize": ("c98f97b9372aa865", (11.564499999999954, 11.564499999999953, 11.564499999999953, 11.56449999999994, 11.564499999999915)),
    "nested_loops": ("b3e4f16eb5bc614a", (30.139999999999336, 30.136000000000188, 30.128000000000142, 30.01400000000016, 29.60200000000016)),
    "nested_loops_dup_keys": ("6a7b9789694f5430", (22.302499999999732, 22.29849999999997, 22.290499999999874, 22.176499999999923, 21.76449999999992)),
    "project": ("b9848c50c9b0ebbb", (11.564499999999954, 11.564499999999953, 11.564499999999953, 11.56449999999994, 11.564499999999915)),
    "select": ("693d43fb9ee021ab", (20.00200000000016, 20.002000000000162, 20.002000000000166, 20.00200000000021, 20.00200000000016)),
    "select_multi_predicate": ("ace20393e4fc9e32", (20.00200000000016, 20.002000000000162, 20.002000000000166, 20.00200000000021, 20.00200000000016)),
    "select_unsatisfiable": ("4f53cda18c2baa0c", (20.00200000000016, 20.002000000000162, 20.002000000000166, 20.00200000000021, 20.00200000000016)),
    "table_scan": ("67517fc5fded77c8", (0.20000000000000015, 0.2000000000000001, 0.20000000000000007, 0.2, 0.2)),
    "union": ("9031bc0e58922926", (11.804500000000035, 11.804499999999964, 11.804499999999942, 11.80449999999994, 11.804499999999916)),
    "wrapper_scan": ("c98f97b9372aa865", (11.564499999999954, 11.564499999999953, 11.564499999999953, 11.56449999999994, 11.564499999999915)),
})


@pytest.mark.parametrize("tree_name", sorted(JOINABLE_TREES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_operator_parity_on_joinable_catalog(parity_catalog, tree_name, batch_size):
    assert_parity(
        JOINABLE_TREES[tree_name], parity_catalog, batch_size, JOINABLE_GOLDENS[tree_name]
    )


def drain_bounded(operator, context, exact_step=next_row) -> list:
    """Read ``operator`` the way a data-driven consumer does: arrival-bounded
    runs (the bound at, just past, and well past the clock, in turn), and one
    exact step whenever a run comes back empty."""
    operator.open()
    rows: list = []
    windows = (0.0, 0.05, 3.0)
    step = 0
    while True:
        batch = operator.next_batch_bounded(7, context.clock.now + windows[step % 3])
        step += 1
        rows.extend(batch)
        context.batch_interrupt = False
        if not batch:
            row = exact_step(operator)
            if row is None:
                break
            rows.append(row)
    operator.close()
    return rows


@pytest.mark.parametrize("tree_name", sorted(JOINABLE_TREES))
def test_bounded_runs_and_tie_steps_deliver_every_row(parity_catalog, tree_name):
    """Every operator's bounded pull stops short of the end of its stream only
    at the bound: with the tie steps in between, the rows are the drive's."""
    context = ExecutionContext(parity_catalog)
    rows = drain_bounded(JOINABLE_TREES[tree_name](context), context)
    assert multiset_digest(rows) == JOINABLE_GOLDENS[tree_name][0]


def stepped_drive(build, catalog, step) -> tuple:
    """Everything a bounded drive of ``build`` leaves: the stamped rows, the
    clock and its breakdown, and every operator's statistics."""
    context = ExecutionContext(catalog)
    rows = drain_bounded(build(context), context, step)
    stats = {op: asdict(found) for op, found in context.stats.operator_stats.items()}
    stamped = [(row.values, row.arrival) for row in rows]
    return stamped, context.clock.now, asdict(context.clock.stats), stats


def tree_collector(context):
    children = [
        WrapperScan(f"scan_{name}", context, name)
        for name in ["bib-main", "bib-mirror", "bib-partial"]
    ]
    return DynamicCollector("coll", context, children, dedup_keys=["bib.isbn"])


#: tree -> (clock, digest of the operator statistics, digest of the stamped
#: rows) of a bounded drive whose exact steps were one-row steps, recorded
#: while the base class's ``next()`` boxed its one-row batch itself.
STEPPED_GOLDENS = {
    "double_pipelined": (20.18000000000023, "e1c79a79af6033a9", "5e97c0db04237d5d"),
    "collector": (191.64840888782277, "2d0d2c607bd0e526", "7b593a1e6164952a"),
}


@pytest.mark.parametrize(
    "build, catalog_name, golden",
    [
        (tree_dpj, "parity_catalog", STEPPED_GOLDENS["double_pipelined"]),
        (tree_collector, "mirror_catalog", STEPPED_GOLDENS["collector"]),
    ],
    ids=["double_pipelined", "collector"],
)
def test_one_row_step_charges_as_next_does(request, build, catalog_name, golden):
    """A tie step taken with ``next_one`` leaves the rows, the clock bit for
    bit and the operator statistics that the retired one-row adapter
    ``Operator.next()`` left."""
    catalog = request.getfixturevalue(catalog_name)
    rows, now, _, stats = stepped_drive(build, catalog, next_row)
    assert (now, digest(repr(sorted(stats.items()))), digest(repr(rows))) == golden


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


#: implementation -> (multiset digest, batch clock at batch sizes 1, 7, 64).
TWO_COLUMN_GOLDENS = goldens([1, 7, 64], {
    "double_pipelined": ("0b9f343c001f4b75", (11.412000000000157, 11.406000000000002, 11.29000000000002)),
    "hybrid_hash": ("0b9f343c001f4b75", (11.002000000000033, 11.002000000000033, 11.161999999999995)),
    "nested_loops": ("0b9f343c001f4b75", (12.684000000000427, 12.671999999999954, 12.558000000000003)),
    "dependent": ("0b9f343c001f4b75", (159.73400000000385, 159.97200000000063, 162.53600000000012)),
})


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

    golden = TWO_COLUMN_GOLDENS[implementation]
    rows = assert_parity(build, two_column_catalog, batch_size, golden)
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

    reference = two_column_pairs()
    # Bucket identity hashes the string column, so the outcome moves with
    # PYTHONHASHSEED: the live per-tuple reference is the oracle here.
    row_rows, row_ctx, row_join = drain_batch_with_context(
        build, two_column_catalog, batch_size, reference=True
    )
    col_rows, col_ctx, col_join = drain_batch_with_context(build, two_column_catalog, batch_size)
    assert multiset(col_rows) == reference
    assert spill_fingerprint(col_rows, col_ctx, "join") == spill_fingerprint(
        row_rows, row_ctx, "join"
    )
    assert col_ctx.stats.operator("join").overflow_events > 0
    assert col_ctx.disk.stats.tuples_read > 0
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


def tpcd_answer(tiny_tpcd) -> dict:
    """``partsupp ⋈ part``'s row multiset, joined naively."""
    return multiset(
        reference_join(tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey")
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
    build = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, method)
    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)

    context = ExecutionContext(tpcd_catalog)
    joined = build(context)
    rows = drain_batch(joined, batch_size)
    assert joined.overflow_count > 0, "memory budget was meant to force spills"
    assert multiset(rows) == tpcd_answer(tiny_tpcd)
    assert_budget_invariant(joined)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_hybrid_overflow_parity(tpcd_catalog, tiny_tpcd, batch_size):
    build = tpcd_hybrid(len(tiny_tpcd["part"]) * 20)

    context = ExecutionContext(tpcd_catalog)
    joined = build(context)
    rows = drain_batch(joined, batch_size)
    assert context.stats.operator("hh").overflow_events > 0
    assert multiset(rows) == tpcd_answer(tiny_tpcd)
    assert_budget_invariant(joined)


# -- spill parity: the batch drive vs the per-tuple reference under memory pressure --------
#
# The hash tables, memory accounting, and spill files are columnar in every
# drive; the batch drive and the per-tuple reference differ only in how tuples
# reach them, so their output (stamps and order included), overflow events,
# spill I/O and virtual clocks must all agree *exactly* with each other and
# with the goldens recorded on the retired row-batch drive (and match the
# naive join's result multiset).


def drain_batch_with_context(build_tree, catalog, batch_size, reference=False):
    context = ExecutionContext(catalog)
    operator = build_tree(context)
    if reference:
        per_tuple_reference(operator)
    rows = drain_batch(operator, batch_size)
    return rows, context, operator


def spill_fingerprint(rows, context, operator_id):
    """Output digest, overflow events, disk counters and final clock."""
    stats = context.disk.stats
    return (
        digest([(row.values, row.arrival) for row in rows]),
        context.stats.operator(operator_id).overflow_events,
        (stats.tuples_written, stats.bytes_written, stats.tuples_read, stats.total_pages),
        context.clock.now,
    )


def assert_spill_parity(build, catalog, operator_id, batch_size, golden, answer):
    for per_tuple in (False, True):
        rows, context, join = drain_batch_with_context(
            build, catalog, batch_size, reference=per_tuple
        )
        assert multiset(rows) == answer
        assert spill_fingerprint(rows, context, operator_id) == golden, per_tuple
        assert_budget_invariant(join)


#: (method, batch size) -> :func:`spill_fingerprint` of the row-batch
#: drive, which the batch drive matched.
DPJ_SPILL_GOLDENS = {
    ("left_flush", 7): ("5b7ddb9e6c0aef1d", 5, (177, 9143, 177, 2), 14.555999999999829),
    ("left_flush", 64): ("fb63b30fb6463b91", 5, (177, 9143, 177, 2), 14.495999999999842),
    ("symmetric_flush", 7): ("362c7b0f2feabe50", 6, (225, 12547, 225, 2), 14.683999999999825),
    ("symmetric_flush", 64): ("797707d4af7eeed7", 6, (225, 12547, 225, 2), 14.667999999999843),
}
#: batch size -> the same for the hybrid hash join.
HYBRID_SPILL_GOLDENS = {
    7: ("f635dd7e50e7fd30", 8, (300, 16787, 300, 4), 14.70799999999989),
    64: ("cf6f1b3e09d7f119", 8, (300, 16787, 300, 4), 14.743999999999883),
}

#: Batch sizes of the spill parity cases; ``-True`` in the ids names the
#: encoded column layout the goldens were recorded under.
SPILL_BATCH_SIZES = pytest.mark.parametrize("batch_size", [7, 64], ids=["7-True", "64-True"])


@SPILL_BATCH_SIZES
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_spill_drive_parity(tpcd_catalog, tiny_tpcd, method, batch_size, monkeypatch):
    build = tpcd_dpj(len(tiny_tpcd["partsupp"]) * 20, method)
    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)
    golden = DPJ_SPILL_GOLDENS[method.value, batch_size]
    assert_spill_parity(build, tpcd_catalog, "dpj", batch_size, golden, tpcd_answer(tiny_tpcd))


@SPILL_BATCH_SIZES
def test_hybrid_spill_drive_parity(tpcd_catalog, tiny_tpcd, batch_size):
    build = tpcd_hybrid(len(tiny_tpcd["part"]) * 20)
    golden = HYBRID_SPILL_GOLDENS[batch_size]
    assert_spill_parity(build, tpcd_catalog, "hh", batch_size, golden, tpcd_answer(tiny_tpcd))


def test_hybrid_mixed_callers_mid_overflow_pass(tpcd_catalog, tiny_tpcd):
    """Switching from batch to one-row pulls mid-overflow-pass must not duplicate.

    A batch caller starts the overflow pass; ``next_row`` on the same operator
    keeps draining that pass rather than restarting it (which would re-read
    the spill files and re-emit pairs).
    """
    build = tpcd_hybrid(len(tiny_tpcd["part"]) * 20)

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
            # As soon as the overflow pass has begun, switch to one-row
            # pulls for the remainder.
            if joined._overflow_cursors is not None:
                switched = True
        else:
            row = next_row(joined)
            if row is None:
                break
            rows.append(row)
    joined.close()
    assert switched, "memory budget was meant to force an overflow pass"
    assert multiset(rows) == tpcd_answer(tiny_tpcd)


# -- TPC-D catalog parity for the hot tree shapes ------------------------------------------


#: implementation -> (multiset digest, batch clock at batch sizes 1, 64, 512).
TPCD_GOLDENS = goldens([1, 64, 512], {
    "hybrid": ("1cff932b335d9947", (14.001999999999915, 14.001999999999883, 14.001999999999756)),
    "dpj": ("1cff932b335d9947", (14.387999999999957, 14.269999999999843, 14.045999999999843)),
})


@pytest.mark.parametrize("batch_size", [1, 64, 512])
@pytest.mark.parametrize("implementation", ["hybrid", "dpj"])
def test_tpcd_join_parity(tpcd_catalog, tiny_tpcd, implementation, batch_size):
    def build(context):
        left = WrapperScan("scan_ps", context, "partsupp")
        right = WrapperScan("scan_p", context, "part")
        cls = HybridHashJoin if implementation == "hybrid" else DoublePipelinedJoin
        return cls(
            "j", context, left, right, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )

    rows = assert_parity(build, tpcd_catalog, batch_size, TPCD_GOLDENS[implementation])
    assert multiset(rows) == tpcd_answer(tiny_tpcd)


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


#: dedup keys -> (multiset digest, batch clock per batch size of :data:`BATCH_SIZES`).
COLLECTOR_GOLDENS = goldens(BATCH_SIZES, {
    None: ("96fe5e854c01172b", (191.6564088878228, 191.64840888782265, 191.64040888782267, 191.6404088878225, 191.64040888782216)),
    "bib.isbn": ("fae87eddfe994562", (191.64840888782277, 191.64640888782267, 191.64640888782267, 191.64840888782268, 191.64040888782216)),
})


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("dedup", [None, ["bib.isbn"]])
def test_collector_parity(mirror_catalog, dedup, batch_size):
    def build(context):
        children = [
            WrapperScan(f"scan_{name}", context, name)
            for name in ["bib-main", "bib-mirror", "bib-partial"]
        ]
        return DynamicCollector("coll", context, children, dedup_keys=dedup)

    golden = COLLECTOR_GOLDENS[dedup[0] if dedup else None]
    assert_parity(build, mirror_catalog, batch_size, golden)
    if batch_size == 7:
        context = ExecutionContext(mirror_catalog)
        assert multiset_digest(drain_bounded(build(context), context)) == golden[0]


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


#: batch size -> the race plan's final clock: a watched child's runs are
#: charged as every bounded run is, CPU overlapped with their waits.
RACE_CLOCKS = {2: 7.627000000000011, 16: 7.627000000000011, 256: 7.627000000000022}


@pytest.mark.parametrize("batch_size", sorted(RACE_CLOCKS))
def test_executor_collector_switch_parity(mirror_catalog, batch_size):
    """The race policy fires at the tuple the tuple drive fired it at: the
    same answer, one rule firing, the same rows taken from each child."""
    batched, context = _run_plan(mirror_catalog, batch_size=batch_size)
    assert multiset_digest(batched.answer) == "fae87eddfe994562"
    assert batched.stats.rules_fired == 1
    assert context.operator("coll1").tuples_per_child == {
        "scan_main": 60, "scan_mirror": 0, "scan_partial": 0
    }
    assert context.clock.now == RACE_CLOCKS[batch_size]


@pytest.mark.parametrize("batch_size", [2, 64])
def test_executor_join_plan_parity(tpcd_catalog, batch_size):
    """Whole-plan parity on a TPC-D join fragment: the tuple drive's answer."""
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

    batched = run(batch_size)
    assert batched.status == ExecutionStatus.COMPLETED
    assert multiset_digest(batched.answer) == "1cff932b335d9947"
    assert batched.stats.output_timeline.total == 240
