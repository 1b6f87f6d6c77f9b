"""Unit tests for the query executor (fragments, events, rule actions)."""

import gc
import weakref

import pytest

from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionStatus, QueryExecutor
from repro.errors import PlanError
from repro.network.profiles import dead, lan
from repro.plan.fragments import Fragment, FragmentStatus, QueryPlan
from repro.plan.physical import OverflowMethod, join, materialize, table_scan, wrapper_scan
from repro.plan.rules import (
    Compare,
    EventType,
    Rule,
    constant,
    deactivate,
    event_value,
    replan,
    reschedule,
    return_error,
    select_fragment,
    set_overflow_method,
)

from helpers import multiset, reference_join


def join_fragment(fragment_id="f1", result="res1", memory=None, estimate=None, reliable=True):
    root = join(
        wrapper_scan("ord", operator_id=f"{fragment_id}_scan_ord"),
        wrapper_scan("item", operator_id=f"{fragment_id}_scan_item"),
        ["ord.o_id"],
        ["item.i_order"],
        operator_id=f"{fragment_id}_join",
        memory_limit_bytes=memory,
        estimated_cardinality=estimate,
    )
    return Fragment(
        fragment_id=fragment_id,
        root=root,
        result_name=result,
        estimated_cardinality=estimate,
        estimate_reliable=reliable,
        covers=frozenset({"ord", "item"}),
    )


class TestBasicExecution:
    def test_finished_query_is_freed_without_a_collection(self, joinable_catalog):
        """Closed operators hold their context weakly and the event handler its
        executor weakly, so dropping a finished query frees the context (and the
        results it owns) by reference counting alone — an allocation-light
        engine rarely triggers a full collection that would break the cycle."""
        gc.collect()
        gc.disable()
        try:
            context = ExecutionContext(joinable_catalog)
            executor = QueryExecutor(context)
            outcome = executor.execute(QueryPlan(query_name="q", fragments=[join_fragment()]))
            assert outcome.status == ExecutionStatus.COMPLETED
            operator = context.operator("f1_join")
            assert operator.tuples_produced == 3  # introspection still works after close
            alive = weakref.ref(context)
            del context, executor, outcome, operator
            assert alive() is None
        finally:
            gc.enable()

    def test_single_fragment_completes_with_answer(self, joinable_catalog, context):
        plan = QueryPlan(query_name="q", fragments=[join_fragment()])
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.COMPLETED
        assert outcome.answer is not None
        expected = reference_join(
            joinable_catalog.source("ord").relation,
            joinable_catalog.source("item").relation,
            "o_id",
            "i_order",
        )
        assert multiset(outcome.answer) == multiset(expected)
        assert outcome.completed_fragments == ["f1"]
        assert outcome.observed_cardinalities == {"res1": 3}
        assert plan.fragments[0].status == FragmentStatus.COMPLETED

    def test_materialize_root_result_is_the_answer(self, joinable_catalog, context):
        """A materialize root stores the result under its own name, so a
        fragment naming another result is refused before it can report the
        cardinality of a relation that never exists."""
        with pytest.raises(PlanError, match="materializes 'mine'"):
            Fragment("f1", materialize(wrapper_scan("ord"), "mine"), "answer")
        fragment = Fragment("f1", materialize(wrapper_scan("ord"), "answer"), "answer")
        outcome = QueryExecutor(context).execute(QueryPlan("q", [fragment]))
        assert outcome.status == ExecutionStatus.COMPLETED
        cardinality = joinable_catalog.source("ord").cardinality
        assert outcome.answer is not None and outcome.answer.cardinality == cardinality
        assert outcome.observed_cardinalities == {"answer": cardinality}

    def test_output_timeline_recorded_for_final_fragment(self, context):
        plan = QueryPlan(query_name="q", fragments=[join_fragment()])
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.stats.output_timeline.total == 3
        assert outcome.stats.time_to_first_tuple is not None

    def test_multi_fragment_plan_with_dependency(self, context):
        first = join_fragment("f1", "join1_result")
        second_root = table_scan("join1_result", operator_id="f2_scan")
        second = Fragment(fragment_id="f2", root=second_root, result_name="final")
        plan = QueryPlan(
            query_name="q",
            fragments=[first, second],
            dependencies={"f2": {"f1"}},
        )
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.COMPLETED
        assert outcome.answer.cardinality == 3
        assert "join1_result" in context.local_store

    def test_fragment_stats_and_catalog_feedback(self, context):
        plan = QueryPlan(query_name="q", fragments=[join_fragment(estimate=100)])
        outcome = QueryExecutor(context).execute(plan)
        frag_stats = outcome.stats.fragment_stats[0]
        assert frag_stats.result_cardinality == 3
        assert frag_stats.estimated_cardinality == 100
        assert context.catalog.statistics.cardinality("res1") == 3


class TestRuleDrivenAdaptivity:
    def test_replan_rule_stops_execution_for_reoptimization(self, context):
        first = join_fragment("f1", "res1", estimate=50, reliable=False)
        first.rules = [
            Rule(
                "replan-f1",
                "f1",
                EventType.CLOSED,
                "f1",
                condition=Compare(event_value(), "<=", constant(50), scale=0.5),
                actions=[replan()],
            )
        ]
        second = Fragment(
            fragment_id="f2", root=table_scan("res1", operator_id="f2_scan"), result_name="final"
        )
        plan = QueryPlan(query_name="q", fragments=[first, second], dependencies={"f2": {"f1"}})
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.NEEDS_REOPTIMIZATION
        assert outcome.completed_fragments == ["f1"]
        assert outcome.remaining_fragments == ["f2"]
        assert outcome.stats.reoptimizations == 1

    def test_replan_rule_not_triggered_when_estimate_close(self, context):
        first = join_fragment("f1", "res1", estimate=3)
        first.rules = [
            Rule(
                "replan-f1",
                "f1",
                EventType.CLOSED,
                "f1",
                condition=Compare(event_value(), ">=", constant(3), scale=2.0),
                actions=[replan()],
            )
        ]
        second = Fragment(
            fragment_id="f2", root=table_scan("res1", operator_id="f2_scan"), result_name="final"
        )
        plan = QueryPlan(query_name="q", fragments=[first, second], dependencies={"f2": {"f1"}})
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.COMPLETED

    def test_timeout_rule_requests_reschedule(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(dead())
        context = ExecutionContext(joinable_catalog, config=EngineConfig(default_timeout_ms=100.0))
        fragment = join_fragment("f1", "res1")
        fragment.rules = [
            Rule("rescue", "f1", EventType.TIMEOUT, "ord", actions=[reschedule()])
        ]
        plan = QueryPlan(query_name="q", fragments=[fragment])
        outcome = QueryExecutor(context).execute(plan)
        joinable_catalog.source("ord").set_profile(lan())
        assert outcome.status == ExecutionStatus.RESCHEDULE_REQUESTED
        assert "ord" in outcome.failed_sources
        assert outcome.remaining_fragments == ["f1"]

    def test_unhandled_timeout_fails(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(dead())
        context = ExecutionContext(joinable_catalog, config=EngineConfig(default_timeout_ms=100.0))
        plan = QueryPlan(query_name="q", fragments=[join_fragment()])
        outcome = QueryExecutor(context).execute(plan)
        joinable_catalog.source("ord").set_profile(lan())
        assert outcome.status == ExecutionStatus.FAILED
        assert plan.fragments[0].status == FragmentStatus.FAILED

    def test_set_overflow_method_action(self, context):
        fragment = join_fragment("f1", "res1", memory=100_000)
        fragment.rules = [
            Rule(
                "pick-overflow",
                "f1",
                EventType.OPENED,
                "f1_join",
                actions=[set_overflow_method("f1_join", OverflowMethod.SYMMETRIC_FLUSH.value)],
            )
        ]
        plan = QueryPlan(query_name="q", fragments=[fragment])
        QueryExecutor(context).execute(plan)
        assert context.operator("f1_join").overflow_method == OverflowMethod.SYMMETRIC_FLUSH

    def test_return_error_action_fails_query(self, context):
        fragment = join_fragment("f1", "res1")
        fragment.rules = [
            Rule(
                "abort",
                "f1",
                EventType.OPENED,
                "f1_join",
                actions=[return_error("policy violation")],
            )
        ]
        plan = QueryPlan(query_name="q", fragments=[fragment])
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.FAILED
        assert "policy violation" in outcome.error

    def test_deactivate_fragment_action_skips_it(self, context):
        first = join_fragment("f1", "res1")
        second = join_fragment("f2", "res2")
        first.rules = [
            Rule("skip-f2", "f1", EventType.CLOSED, "f1", actions=[deactivate("f2")])
        ]
        plan = QueryPlan(query_name="q", fragments=[first, second])
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.COMPLETED
        assert plan.fragments[1].status == FragmentStatus.SKIPPED
        assert outcome.completed_fragments == ["f1"]

    def test_select_fragment_contingent_planning(self, context):
        first = join_fragment("f1", "res1")
        alt_a = join_fragment("f2a", "res2a")
        alt_b = join_fragment("f2b", "res2b")
        first.rules = [
            Rule(
                "choose-b",
                "f1",
                EventType.CLOSED,
                "f1",
                actions=[select_fragment("f2b")],
            )
        ]
        plan = QueryPlan(
            query_name="q",
            fragments=[first, alt_a, alt_b],
            choice_groups={"next": ["f2a", "f2b"]},
        )
        outcome = QueryExecutor(context).execute(plan)
        assert outcome.status == ExecutionStatus.COMPLETED
        assert plan.fragment("f2a").status == FragmentStatus.SKIPPED
        assert plan.fragment("f2b").status == FragmentStatus.COMPLETED
