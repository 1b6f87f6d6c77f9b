"""Unit tests for repro.plan.fragments."""

import pytest

from repro.errors import PlanError
from repro.plan.fragments import Fragment, FragmentStatus, QueryPlan
from repro.plan.physical import join, wrapper_scan
from repro.plan.rules import EventType, Rule, replan


def make_fragment(fragment_id: str, result: str, sources=("a", "b")) -> Fragment:
    root = join(
        wrapper_scan(sources[0], operator_id=f"{fragment_id}_l"),
        wrapper_scan(sources[1], operator_id=f"{fragment_id}_r"),
        [f"{sources[0]}.x"],
        [f"{sources[1]}.x"],
        operator_id=f"{fragment_id}_join",
    )
    return Fragment(fragment_id=fragment_id, root=root, result_name=result, covers=frozenset(sources))


class TestFragment:
    def test_requires_result_name(self):
        with pytest.raises(PlanError):
            make_fragment("f1", "")

    def test_sources_and_operator_ids(self):
        fragment = make_fragment("f1", "r1")
        assert set(fragment.sources()) == {"a", "b"}
        assert "f1_join" in [node.operator_id for node in fragment.root.walk()]

    def test_describe(self):
        fragment = make_fragment("f1", "r1")
        fragment.estimated_cardinality = 7
        assert "Fragment f1 -> r1 (est 7)" in fragment.describe()

    def test_initial_status(self):
        assert make_fragment("f1", "r1").status == FragmentStatus.PENDING


class TestQueryPlan:
    def test_last_fragment_is_final_and_answer(self):
        f1, f2 = make_fragment("f1", "r1"), make_fragment("f2", "r2", sources=("c", "d"))
        plan = QueryPlan(query_name="q", fragments=[f1, f2])
        assert plan.answer_name == "r2"
        assert not f1.is_final
        assert f2.is_final

    def test_duplicate_fragment_ids_rejected(self):
        with pytest.raises(PlanError):
            QueryPlan(query_name="q", fragments=[make_fragment("f1", "r1"), make_fragment("f1", "r2")])

    def test_dependencies_validated(self):
        f1 = make_fragment("f1", "r1")
        with pytest.raises(PlanError):
            QueryPlan(query_name="q", fragments=[f1], dependencies={"f1": {"ghost"}})
        with pytest.raises(PlanError):
            QueryPlan(query_name="q", fragments=[f1], dependencies={"ghost": set()})

    def test_cycle_detected(self):
        f1, f2 = make_fragment("f1", "r1"), make_fragment("f2", "r2", sources=("c", "d"))
        with pytest.raises(PlanError):
            QueryPlan(
                query_name="q",
                fragments=[f1, f2],
                dependencies={"f1": {"f2"}, "f2": {"f1"}},
            )

    def test_execution_order_respects_dependencies(self):
        f1 = make_fragment("f1", "r1")
        f2 = make_fragment("f2", "r2", sources=("c", "d"))
        f3 = make_fragment("f3", "r3", sources=("e", "f"))
        plan = QueryPlan(
            query_name="q",
            fragments=[f3, f2, f1],
            dependencies={"f3": {"f1", "f2"}},
        )
        order = [f.fragment_id for f in plan.execution_order()]
        assert order.index("f3") > order.index("f1")
        assert order.index("f3") > order.index("f2")

    def test_fragment_and_operator_lookup(self):
        f1 = make_fragment("f1", "r1")
        plan = QueryPlan(query_name="q", fragments=[f1])
        assert plan.fragment("f1") is f1
        assert plan.operator("f1_join").operator_id == "f1_join"
        with pytest.raises(PlanError):
            plan.fragment("zzz")
        with pytest.raises(PlanError):
            plan.operator("zzz")

    def test_sources_aggregated(self):
        plan = QueryPlan(
            query_name="q",
            fragments=[make_fragment("f1", "r1"), make_fragment("f2", "r2", sources=("c", "d"))],
        )
        assert plan.sources() == ["a", "b", "c", "d"]

    def test_all_rules_combines_global_and_local(self):
        f1 = make_fragment("f1", "r1")
        f1.rules = [Rule("local", "f1", EventType.CLOSED, "f1", actions=[replan()])]
        plan = QueryPlan(
            query_name="q",
            fragments=[f1],
            global_rules=[Rule("global", "q", EventType.TIMEOUT, "a", actions=[replan()])],
        )
        assert {rule.name for rule in plan.all_rules()} == {"local", "global"}

    def test_duplicate_rule_names_rejected_at_plan_level(self):
        f1 = make_fragment("f1", "r1")
        f1.rules = [Rule("r", "f1", EventType.CLOSED, "f1", actions=[replan()])]
        with pytest.raises(PlanError):
            QueryPlan(
                query_name="q",
                fragments=[f1],
                global_rules=[Rule("r", "q", EventType.TIMEOUT, "a", actions=[replan()])],
            )

    def test_choice_groups_validated(self):
        f1 = make_fragment("f1", "r1")
        with pytest.raises(PlanError):
            QueryPlan(query_name="q", fragments=[f1], choice_groups={"g": ["f1", "ghost"]})

    def test_describe_mentions_fragments(self):
        plan = QueryPlan(query_name="q", fragments=[make_fragment("f1", "r1")])
        assert "Fragment f1" in plan.describe()
