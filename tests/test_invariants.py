"""The engine's step invariants (``tests/invariants.py``) over a set of plans.

Each case runs one one-fragment plan twice on fresh state: once through
:meth:`QueryExecutor.steps` with probe purity and pool accounting checked at
every step boundary and quiescence after close, once through
:meth:`QueryExecutor.execute`, which never probes.  Both runs must agree on
the result, its arrival stamps, the events and the completion time.  Together
the cases probe every class in ``src/repro`` that defines ``peek_arrival``,
the scan's live and cache-served feeds, and a deduplicating collector whose
standby child never starts.

The fault cases run the same plans with one operator's close raising after
its real ``_do_close``, one operator at a time, and a build and a server
session that fail after a join took its grant: the error must surface and
the tree must still give back every grant, byte and connection.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.builder import build_operator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionStatus, QueryExecutor
from repro.engine.operators.exchange import Exchange
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import CatalogError
from repro.network.cache import SourceCache
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import (
    JoinImplementation,
    choose,
    collector,
    exchange,
    join,
    project_,
    select_,
    union_,
    wrapper_scan,
)
from repro.query.conjunctive import SelectionPredicate
from repro.server.broker import MemoryBroker
from repro.server.scheduler import QueryServer
from repro.server.session import SessionStatus
from repro.storage.memory import MemoryPool

from helpers import make_relation
from invariants import EventLog, check_quiescent, reachable_operators, run_checked

SRC = Path(__file__).resolve().parents[1] / "src"

ORDERS = make_relation(
    "ord", ["o_id:int", "o_cust:str"], [(i, f"c{i % 7}") for i in range(40)]
)
ITEMS = make_relation(
    "item",
    ["i_order:int", "i_sku:str", "i_qty:int"],
    [(i % 45, f"s{i % 11}", i % 5) for i in range(90)],
)
KEYS = (["ord.o_id"], ["item.i_order"])


def catalog() -> DataSourceCatalog:
    """Orders over a wide-area link (so pulls wait), items and a mirror of the
    orders on a LAN."""
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("ord", ORDERS, wide_area()))
    catalog.register_source(DataSource("ord-mirror", ORDERS, lan()))
    catalog.register_source(DataSource("item", ITEMS, lan()))
    return catalog


def scan(source: str, tag: str):
    return wrapper_scan(source, operator_id=f"{tag}_{source}")


def hash_join(tag: str, implementation: JoinImplementation, memory: int | None = None):
    return join(
        scan("ord", tag),
        scan("item", tag),
        *KEYS,
        implementation=implementation,
        operator_id=f"{tag}_join",
        memory_limit_bytes=memory,
    )


def dpj_select_project():
    """A DPJ that overflows its allotment, under a select and a project."""
    joined = hash_join("d", JoinImplementation.DOUBLE_PIPELINED, memory=1500)
    kept = select_(joined, [SelectionPredicate("item", "i_qty", ">", 0)], operator_id="d_sel")
    return project_(kept, ["ord.o_id", "item.i_sku"], operator_id="d_proj")


def union_of_joins():
    """A hybrid hash join (the base class's probe) and a nested-loops join."""
    return union_(
        [
            hash_join("h", JoinImplementation.HYBRID_HASH, memory=1500),
            hash_join("n", JoinImplementation.NESTED_LOOPS),
        ],
        operator_id="u",
    )


def choose_node():
    return choose([scan("ord", "c1"), scan("ord-mirror", "c2")], operator_id="ch")


def dedup_collector():
    """Dedup over a mirror pair; the standby mirror is never started, and the
    key set's allotment is small enough to spill."""
    spec = collector([scan("ord", "k"), scan("ord-mirror", "k")], operator_id="k_coll")
    spec.params.update(
        initially_active=["k_ord"], dedup_keys=["ord.o_id"], dedup_budget_bytes=400
    )
    return spec


def exchange_join():
    joined = hash_join("x", JoinImplementation.DOUBLE_PIPELINED, memory=4000)
    return exchange(joined, ["ord.o_id"], lanes=2, operator_id="x_xchg")


def cached_join():
    """Orders served from a warm source cache, items streamed live."""
    return hash_join("w", JoinImplementation.HYBRID_HASH)


#: case -> (plan root, whether the orders are cached before the run)
CASES = {
    "dpj-select-project": (dpj_select_project, False),
    "union-of-joins": (union_of_joins, False),
    "choose": (choose_node, False),
    "dedup-collector": (dedup_collector, False),
    "exchange": (exchange_join, False),
    "cache-served-scan": (cached_join, True),
}


def fresh_run(case: str) -> tuple[QueryExecutor, QueryPlan]:
    """An executor over fresh sources, pool and event log, and the case's plan."""
    root, warm = CASES[case]
    sources = catalog()
    cache = SourceCache() if warm else None
    if warm:
        warmup = ExecutionContext(sources, source_cache=cache)
        plan = QueryPlan("warm", [Fragment("warm", scan("ord", "warm"), "warm_result")])
        assert QueryExecutor(warmup).execute(plan).completed
    context = ExecutionContext(
        sources,
        memory_pool=MemoryPool(broker=MemoryBroker()),
        config=EngineConfig(enable_source_caching=warm),
        source_cache=cache,
        query_name=case,
    )
    context.events = EventLog()
    plan = QueryPlan(case, [Fragment(case, root(), f"{case}_result")])
    return QueryExecutor(context, batch_size=8), plan


def observed(executor: QueryExecutor, outcome) -> tuple:
    """The result rows with their stamps, every event, and the completion time."""
    assert outcome.status == ExecutionStatus.COMPLETED, outcome.error
    rows = [(row.values, row.arrival) for row in outcome.answer.rows]
    return rows, executor.context.events.log, outcome.stats.completion_time_ms


@pytest.mark.parametrize("case", list(CASES))
def test_invariants_hold_at_every_step(case):
    executor, plan = fresh_run(case)
    checked = run_checked(executor, plan, set())
    stepped = observed(executor, checked)
    reference, plan = fresh_run(case)
    assert stepped == observed(reference, reference.execute(plan))
    assert stepped[0], "the plan produced no rows"


def open_wrapper(scan) -> None:
    if not scan.wrapper.is_open:
        scan.wrapper.open()


#: seeded effect -> (class whose ``peek_arrival`` gets it, the effect)
IMPURE_PEEKS = {
    "opens-wrapper": (WrapperScan, open_wrapper),
    "consumes-cpu": (DoublePipelinedJoin, lambda join: join.context.clock.consume_cpu(0.01)),
}


@pytest.mark.parametrize("effect", list(IMPURE_PEEKS))
def test_probe_purity_fails_on_a_seeded_effect(effect, monkeypatch):
    """A ``peek_arrival`` that opens a connection or spends cpu fails the
    purity check at the first step boundary."""
    cls, effect_of = IMPURE_PEEKS[effect]
    pure_peek = cls.peek_arrival

    def impure_peek(self):
        effect_of(self)
        return pure_peek(self)

    monkeypatch.setattr(cls, "peek_arrival", impure_peek)
    executor, plan = fresh_run("dpj-select-project")
    with pytest.raises(AssertionError, match="changed"):
        run_checked(executor, plan, set())


def test_cache_and_standby_cases_take_their_paths():
    executor, plan = fresh_run("cache-served-scan")
    executor.execute(plan)
    assert executor.context.operator("w_ord").served_from_cache
    executor, plan = fresh_run("dedup-collector")
    executor.execute(plan)
    context = executor.context
    assert context.operator("k_coll").dedup_spills > 0
    assert context.operator("k_ord-mirror").tuples_produced == 0
    assert context.catalog.source("ord-mirror").stats.connections_opened == 0


def peek_classes_in_src() -> set[type]:
    """Every class in ``src/repro`` whose body defines ``peek_arrival``."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "peek_arrival"
                for item in node.body
            ):
                found.add(getattr(importlib.import_module(module), node.name))
    return found


def test_every_peek_arrival_is_probed():
    """A class that defines ``peek_arrival`` and no case reaches fails here,
    so a new operator cannot slip past the purity check."""
    probed: set[type] = set()
    for case in CASES:
        run_checked(*fresh_run(case), probed)
    expected = peek_classes_in_src()
    assert len(expected) >= 11
    missed = sorted(cls.__qualname__ for cls in expected - probed)
    assert not missed, f"no case probes these peek_arrival definitions: {missed}"


class InjectedFault(Exception):
    """What a seeded close raises."""


def raise_after_close_of(target: str, monkeypatch) -> None:
    """Make ``target``'s ``_do_close`` raise after it has run in full."""
    register = ExecutionContext.register_operator

    def register_faulty(context, operator) -> None:
        register(context, operator)
        if operator.operator_id == target:
            do_close = operator._do_close

            def faulty_close() -> None:
                do_close()
                raise InjectedFault(target)

            operator._do_close = faulty_close

    monkeypatch.setattr(ExecutionContext, "register_operator", register_faulty)


def check_returned(context, pool: MemoryPool) -> None:
    """Every grant, pool byte, broker lease and wrapper connection is back."""
    check_quiescent(pool)
    assert pool.broker.granted_bytes == 0, f"{pool.broker.granted_bytes} bytes still leased"
    operators = reachable_operators(context)
    open_scans = [
        op.operator_id for op in operators if isinstance(op, WrapperScan) and op.wrapper.is_open
    ]
    assert not open_scans, f"connections left open: {open_scans}"


@pytest.mark.parametrize("case", list(CASES))
def test_a_raising_close_still_returns_the_whole_tree(case):
    executor, plan = fresh_run(case)
    executor.execute(plan)
    targets = sorted({op.operator_id for op in reachable_operators(executor.context)})
    for target in targets:
        with pytest.MonkeyPatch.context() as monkeypatch:
            raise_after_close_of(target, monkeypatch)
            executor, plan = fresh_run(case)
            with pytest.raises(InjectedFault, match=target):
                executor.execute(plan)
        check_returned(executor.context, executor.context.memory_pool)


def join_then_unknown_source():
    """A union whose first input, a hybrid join, takes its grant before the
    second input's scan of an unregistered source fails to build."""
    joined = hash_join("b", JoinImplementation.HYBRID_HASH, memory=4000)
    return union_([joined, wrapper_scan("nowhere", operator_id="b_nowhere")], operator_id="b_u")


def test_a_failing_build_returns_the_grants_it_took():
    context = ExecutionContext(catalog(), memory_pool=MemoryPool(broker=MemoryBroker()))
    with pytest.raises(CatalogError, match="nowhere"):
        build_operator(join_then_unknown_source(), context)
    assert context.memory_pool.broker.stats.leases_granted == 1
    assert not context.operators, f"left registered: {sorted(context.operators)}"
    check_returned(context, context.memory_pool)


def test_a_failing_build_keeps_what_was_registered_before_it():
    context = ExecutionContext(catalog(), memory_pool=MemoryPool(broker=MemoryBroker()))
    built = build_operator(scan("ord", "first"), context)
    with pytest.raises(CatalogError, match="nowhere"):
        build_operator(join_then_unknown_source(), context)
    assert context.operators == {built.operator_id: built}


def test_an_explicit_exchange_registers_under_its_own_id():
    executor, plan = fresh_run("exchange")
    executor.execute(plan)
    context = executor.context
    exchange_op = context.operator("x_xchg")
    assert isinstance(exchange_op, Exchange)
    assert not context.has_operator("x_join")
    assert {op.operator_id for op in exchange_op.lane_operators} == {"x_join.lane0", "x_join.lane1"}


def test_a_failed_server_session_returns_its_grants():
    server = QueryServer(catalog(), memory_capacity_bytes=100_000)
    session = server.submit(join_then_unknown_source())
    server.run()
    assert session.status == SessionStatus.FAILED
    assert "nowhere" in session.error
    assert server.broker.stats.leases_granted == 1
    check_returned(session.context, session.context.memory_pool)
