"""Unit tests for memory allocation and rule generation."""

import pytest

from repro.errors import OptimizationError
from repro.optimizer.memory_alloc import (
    MIN_JOIN_ALLOTMENT_BYTES,
    JoinMemoryRequest,
    allocate_memory,
)
from repro.optimizer.rulegen import (
    overflow_method_rule,
    replan_rule,
    rules_for_fragment,
    timeout_replan_rule,
    timeout_reschedule_rule,
)
from repro.plan.fragments import Fragment
from repro.plan.physical import OverflowMethod, join, wrapper_scan
from repro.plan.rules import ActionType, Event, EventType
from repro.storage.memory import MB

from test_rules import FakeContext


class TestAllocateMemory:
    def test_empty_requests(self):
        assert allocate_memory([], 10 * MB) == {}

    def test_unbounded_pool_gives_unbounded_budgets(self):
        requests = [JoinMemoryRequest("j1", MB), JoinMemoryRequest("j2", MB)]
        allocations = allocate_memory(requests, None)
        assert allocations == {"j1": None, "j2": None}

    def test_proportional_to_build_size(self):
        requests = [JoinMemoryRequest("big", 8 * MB), JoinMemoryRequest("small", 2 * MB)]
        allocations = allocate_memory(requests, 10 * MB)
        assert allocations["big"] > allocations["small"]
        assert sum(allocations.values()) <= 10 * MB

    def test_floor_respected(self):
        requests = [JoinMemoryRequest("tiny", 1), JoinMemoryRequest("huge", 100 * MB)]
        allocations = allocate_memory(requests, 10 * MB)
        assert allocations["tiny"] >= MIN_JOIN_ALLOTMENT_BYTES

    def test_pool_too_small_raises(self):
        requests = [JoinMemoryRequest(f"j{i}", MB) for i in range(10)]
        with pytest.raises(OptimizationError):
            allocate_memory(requests, MIN_JOIN_ALLOTMENT_BYTES * 5)

    def test_total_never_exceeds_pool(self):
        requests = [JoinMemoryRequest(f"j{i}", (i + 1) * MB) for i in range(5)]
        pool = 3 * MB
        allocations = allocate_memory(requests, pool)
        assert sum(allocations.values()) <= pool + MIN_JOIN_ALLOTMENT_BYTES * len(requests)


def make_fragment(reliable=False, estimate=100):
    root = join(
        wrapper_scan("a", operator_id="scan_a"),
        wrapper_scan("b", operator_id="scan_b"),
        ["a.k"],
        ["b.k"],
        operator_id="join_ab",
    )
    return Fragment(
        fragment_id="frag1",
        root=root,
        result_name="res1",
        estimated_cardinality=estimate,
        estimate_reliable=reliable,
        covers=frozenset({"a", "b"}),
    )


class TestRuleGeneration:
    def test_replan_rule_fires_on_2x_error_in_both_directions(self):
        fragment = make_fragment()
        rule = replan_rule(fragment, estimated_cardinality=100, factor=2.0)
        ctx = FakeContext()
        assert rule.condition.evaluate(ctx, Event(EventType.CLOSED, "frag1", value=200))
        assert rule.condition.evaluate(ctx, Event(EventType.CLOSED, "frag1", value=50))
        assert not rule.condition.evaluate(ctx, Event(EventType.CLOSED, "frag1", value=120))
        assert rule.actions[0].action_type == ActionType.REOPTIMIZE

    def test_timeout_rules(self):
        reschedule = timeout_reschedule_rule("srcA", owner="frag1")
        assert reschedule.event_type == EventType.TIMEOUT
        assert reschedule.actions[0].action_type == ActionType.RESCHEDULE
        replan = timeout_replan_rule("srcA", owner="frag1")
        assert replan.actions[0].action_type == ActionType.REOPTIMIZE

    def test_overflow_rule_targets_join(self):
        fragment = make_fragment()
        rule = overflow_method_rule(fragment.root, OverflowMethod.SYMMETRIC_FLUSH, owner="frag1")
        assert rule.subject == "join_ab"
        assert rule.actions[0].argument == "symmetric_flush"

    def test_rules_for_fragment_unreliable_estimate(self):
        fragment = make_fragment(reliable=False)
        rules = rules_for_fragment(
            fragment, fragment.sources(), overflow_method=OverflowMethod.LEFT_FLUSH
        )
        names = {rule.name for rule in rules}
        assert any(name.startswith("replan-") for name in names)
        assert any(name.startswith("reschedule-frag1-a") for name in names)
        assert any(name.startswith("overflow-") for name in names)

    def test_rules_for_fragment_reliable_estimate_no_replan(self):
        fragment = make_fragment(reliable=True)
        rules = rules_for_fragment(fragment, fragment.sources())
        assert not any(rule.name.startswith("replan-") for rule in rules)

    def test_rules_for_fragment_no_reschedule_when_disabled(self):
        fragment = make_fragment()
        rules = rules_for_fragment(fragment, fragment.sources(), reschedule_on_timeout=False)
        assert not any(rule.name.startswith("reschedule-") for rule in rules)
