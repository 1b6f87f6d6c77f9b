"""Named engine invariants, checked at the executor's step boundaries.

Each predicate states one discipline the engine's correctness rests on and
fails with an ``AssertionError`` that names what broke:

* :func:`check_probe_purity` — probing a stream changes nothing.  The
  executor probes a fragment's root before every pull and the server
  scheduler acts on the answer; event-driven scheduling is only sound if
  ``peek_arrival`` moves no clock, takes or returns no memory, opens no
  connection and draws no tuple from a source.  :func:`pure_call` is the
  same check for any probe.
* :func:`check_accounting` — ``pool.used_bytes`` is the sum of
  ``used_bytes`` over the pool's live grants.  It breaks when a usage
  counter is edited behind the reserve / release protocol, and when a grant
  goes back to the pool still holding bytes.
* :func:`check_quiescent` — once a plan has closed, no grant remains and the
  pool holds no byte.

:func:`run_checked` drives a plan through
:meth:`~repro.engine.executor.QueryExecutor.steps` and checks the first two
at every step boundary and all three after the last step.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.engine.events import EventQueue
from repro.engine.executor import ExecutionOutcome, QueryExecutor
from repro.engine.operators.scan import WrapperScan
from repro.plan.fragments import QueryPlan
from repro.storage.memory import MemoryPool


class EventLog(EventQueue):
    """An event queue that keeps every event it was handed, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []

    def push(self, event) -> None:
        self.log.append(event)
        super().push(event)


def reachable_operators(context) -> list:
    """Every operator registered in ``context`` and every operator below one.

    An exchange's producers and lane subtrees register in worker contexts of
    their own; they are reached through ``children`` and ``lane_operators``.
    """
    found: dict[int, object] = {}
    stack = list(context.operators.values())
    while stack:
        operator = stack.pop()
        if id(operator) in found:
            continue
        found[id(operator)] = operator
        stack.extend(operator.children)
        stack.extend(getattr(operator, "lane_operators", ()))
    return list(found.values())


def peek_class(operator) -> type:
    """The class whose ``peek_arrival`` a probe of ``operator`` runs."""
    return next(cls for cls in type(operator).__mro__ if "peek_arrival" in vars(cls))


def _observable(context, operators) -> tuple:
    """What a probe must leave alone: clocks and their cpu / wait / io split,
    pool usage and grants, wrapper connections and the sources' counters."""
    clocks = {id(context.clock): context.clock}
    for operator in operators:
        if operator.state != "closed":  # a closed operator may outlive its context
            clock = operator.context.clock
            clocks.setdefault(id(clock), clock)
    pool = context.memory_pool
    catalog = context.catalog
    return (
        [(clock.now, astuple(clock.stats)) for clock in clocks.values()],
        pool.used_bytes,
        pool.granted_bytes,
        [op.wrapper.is_open for op in operators if isinstance(op, WrapperScan)],
        [astuple(catalog.source(name).stats) for name in catalog.source_names],
    )


def pure_call(probe, observe):
    """Call ``probe()`` twice; both calls must agree and leave ``observe()``
    unchanged.  Returns the probe's answer."""
    before = observe()
    first = probe()
    second = probe()
    after = observe()
    assert after == before, f"{probe} changed {before} -> {after}"
    assert first == second, f"{probe} gave {first}, then {second}"
    return first


def check_probe_purity(context, probed: set[type]) -> None:
    """Probe every reachable operator twice, opened or not; nothing may move.

    Adds the class that defined each probed ``peek_arrival`` to ``probed``.
    """
    operators = reachable_operators(context)
    for operator in operators:
        pure_call(operator.peek_arrival, lambda: _observable(context, operators))
        probed.add(peek_class(operator))


def check_accounting(pool: MemoryPool) -> None:
    """``pool.used_bytes`` equals the sum of ``used_bytes`` over live grants."""
    held = {name: pool.budget(name).used_bytes for name in pool.budget_names}
    assert pool.used_bytes == sum(held.values()), (
        f"pool {pool.name!r} counts {pool.used_bytes} bytes used; its live grants hold {held}"
    )


def check_quiescent(pool: MemoryPool) -> None:
    """After close: no grant remains and the pool holds and grants no byte."""
    remaining = sorted(pool.budget_names)
    assert not remaining, f"grants left after close: {remaining}"
    assert (pool.used_bytes, pool.granted_bytes) == (0, 0), (
        f"pool {pool.name!r} not quiescent: used {pool.used_bytes}, "
        f"granted {pool.granted_bytes}"
    )


def run_checked(executor: QueryExecutor, plan: QueryPlan, probed: set[type]) -> ExecutionOutcome:
    """Drain ``executor.steps(plan)``, checking the invariants at every step."""
    context = executor.context
    pool = context.memory_pool
    for _ in executor.steps(plan):
        check_probe_purity(context, probed)
        check_accounting(pool)
    check_probe_purity(context, probed)
    check_accounting(pool)
    check_quiescent(pool)
    return executor.outcome
