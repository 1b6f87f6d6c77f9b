"""The batch grain is a cost knob, not a semantic one.

``DEFAULT_BATCH_SIZE`` caps the executor's ramp, the hybrid hash join's
build pull, the nested-loops inner block and the exchange lanes.  Driven at
256 and at 1024 rows (the engine's grain), the Fig. 3a double pipelined
and hybrid trees and the §4.2.3 spill plans produce the same result
multiset, overflow victims and spilled bytes, and the same time to first
tuple up to the order its charges are summed in: a hybrid's first output
waits for its build, whose per-batch CPU charges add up in fewer, larger
terms (the last bits move).  Virtual completion may move more, where a
larger batch overlaps more per-row CPU with the waits inside it.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import build_deployment
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.engine.iterators import DEFAULT_BATCH_SIZE
from repro.engine.operators import exchange
from repro.engine.operators.joins import hybrid_hash, nested_loops
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import JoinImplementation, join, wrapper_scan

from helpers import digest, multiset, spill_fingerprints

GRAINS = (256, 1024)


def test_the_engine_grain_is_the_larger_one():
    assert DEFAULT_BATCH_SIZE == GRAINS[-1]


@pytest.fixture
def at_grain(monkeypatch):
    """Run a callable with every pull the grain caps set to ``grain`` rows."""

    def run(grain, work):
        with monkeypatch.context() as patch:
            for module in (hybrid_hash, nested_loops, exchange):
                patch.setattr(module, "DEFAULT_BATCH_SIZE", grain)
            return work(grain)

    return run


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(0.5, ["lineitem", "supplier", "orders"], seed=42)


def fig3a(implementation):
    inner = join(
        wrapper_scan("lineitem", operator_id="scan_lineitem"),
        wrapper_scan("supplier", operator_id="scan_supplier"),
        ["lineitem.l_suppkey"],
        ["supplier.s_suppkey"],
        implementation=implementation,
        operator_id="inner",
    )
    return join(
        inner,
        wrapper_scan("orders", operator_id="scan_orders"),
        ["lineitem.l_orderkey"],
        ["orders.o_orderkey"],
        implementation=implementation,
        operator_id="outer",
    )


@pytest.mark.parametrize(
    "implementation",
    [JoinImplementation.DOUBLE_PIPELINED, JoinImplementation.HYBRID_HASH],
    ids=lambda i: i.value,
)
def test_fig3a_trees_answer_alike_at_both_grains(deployment, at_grain, implementation):
    def run(grain):
        context = ExecutionContext(deployment.catalog, query_name="fig3a")
        plan = QueryPlan("fig3a", [Fragment("fig3a", fig3a(implementation), "fig3a")])
        outcome = QueryExecutor(context, batch_size=grain).execute(plan)
        assert outcome.completed, outcome.error
        overflows = {
            name: stats.overflow_events for name, stats in context.stats.operator_stats.items()
        }
        return (
            digest(sorted(multiset(outcome.answer).items())),
            context.stats.output_timeline.time_to_first,
            overflows,
            context.disk.stats.bytes_written,
        )

    old, new = (at_grain(grain, run) for grain in GRAINS)
    assert (old[0], old[2], old[3]) == (new[0], new[2], new[3])
    assert math.isclose(old[1], new[1], rel_tol=1e-12)


def test_spill_plans_decide_alike_at_both_grains(at_grain):
    old, new = (at_grain(grain, lambda g: spill_fingerprints(batch_size=g)) for grain in GRAINS)
    assert old.keys() == new.keys()
    for plan in old:
        assert old[plan]["bytes_written"] > 0, plan
        assert math.isclose(old[plan]["first_arrival"], new[plan]["first_arrival"], rel_tol=1e-12)
        timeless = {"clock": None, "first_arrival": None}
        assert {**old[plan], **timeless} == {**new[plan], **timeless}, plan
