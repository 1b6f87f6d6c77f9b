"""Unit tests for repro.plan.rules."""

import pytest

from repro.errors import RuleError
from repro.plan.rules import (
    Always,
    And,
    Compare,
    Event,
    EventType,
    Never,
    Not,
    Or,
    Rule,
    activate,
    alter_memory,
    card,
    constant,
    deactivate,
    est_card,
    event_value,
    memory,
    replan,
    reschedule,
    return_error,
    set_overflow_method,
    state,
    time_waiting,
    validate_rule_set,
)


class FakeContext:
    """Minimal RuntimeContext stub for condition evaluation."""

    def __init__(self, cards=None, est=None, states=None, memories=None, waits=None):
        self.cards = cards or {}
        self.est = est or {}
        self.states = states or {}
        self.memories = memories or {}
        self.waits = waits or {}

    def operator_state(self, operator_id):
        return self.states.get(operator_id, "open")

    def operator_card(self, operator_id):
        return self.cards.get(operator_id, 0)

    def operator_est_card(self, operator_id):
        return self.est.get(operator_id)

    def operator_memory(self, operator_id):
        return self.memories.get(operator_id, 0)

    def operator_time_since_last_tuple(self, operator_id):
        return self.waits.get(operator_id, 0.0)


EVENT = Event(EventType.CLOSED, "frag1", value=100, at_time=5.0)


class TestConditions:
    def test_always_never(self):
        ctx = FakeContext()
        assert Always().evaluate(ctx, EVENT)
        assert not Never().evaluate(ctx, EVENT)

    def test_boolean_combinators(self):
        ctx = FakeContext()
        assert (Always() & Always()).evaluate(ctx, EVENT)
        assert not (Always() & Never()).evaluate(ctx, EVENT)
        assert (Never() | Always()).evaluate(ctx, EVENT)
        assert (~Never()).evaluate(ctx, EVENT)
        assert isinstance(Always() & Never(), And)
        assert isinstance(Always() | Never(), Or)
        assert isinstance(~Always(), Not)

    def test_compare_quantities(self):
        ctx = FakeContext(cards={"join1": 250}, est={"join1": 100})
        # The paper's rule: card(join1) >= 2 * est_card(join1).
        rule_condition = Compare(card("join1"), ">=", est_card("join1"), scale=2.0)
        assert rule_condition.evaluate(ctx, EVENT)
        ctx2 = FakeContext(cards={"join1": 150}, est={"join1": 100})
        assert not rule_condition.evaluate(ctx2, EVENT)

    def test_compare_event_value_and_constant(self):
        condition = Compare(event_value(), ">=", constant(50))
        assert condition.evaluate(FakeContext(), EVENT)
        assert not condition.evaluate(FakeContext(), Event(EventType.CLOSED, "frag1", value=10))

    def test_compare_state_memory_time(self):
        ctx = FakeContext(states={"op": "open"}, memories={"op": 2048}, waits={"op": 99.0})
        assert Compare(state("op"), "=", constant("open")).evaluate(ctx, EVENT)
        assert Compare(memory("op"), ">", constant(1024)).evaluate(ctx, EVENT)
        assert Compare(time_waiting("op"), ">=", constant(50)).evaluate(ctx, EVENT)

    def test_invalid_comparator(self):
        with pytest.raises(RuleError):
            Compare(constant(1), "~", constant(2))

    def test_missing_estimate_treated_as_zero(self):
        condition = Compare(est_card("nope"), "=", constant(0))
        assert condition.evaluate(FakeContext(), EVENT)

    def test_str_rendering(self):
        condition = Compare(card("j"), ">=", est_card("j"), scale=2.0)
        assert str(condition) == "card(j) >= 2.0 * est_card(j)"
        assert str(Always()) == "true"


class TestRules:
    def test_rule_requires_actions(self):
        with pytest.raises(RuleError):
            Rule("r", "own", EventType.CLOSED, "frag1", actions=[])

    def test_rule_matches_event(self):
        # A rule triggers on the events that carry its key (the handler files it there).
        rule = Rule("r", "own", EventType.CLOSED, "frag1", actions=[replan()])
        assert rule.event_key == (EVENT.event_type, EVENT.subject)

    def test_rule_str_matches_paper_form(self):
        rule = Rule(
            "r",
            "frag1",
            EventType.CLOSED,
            "frag1",
            condition=Compare(card("join1"), ">=", est_card("join1"), scale=2.0),
            actions=[replan()],
        )
        assert str(rule) == (
            "when closed(frag1) if card(join1) >= 2.0 * est_card(join1) then (reoptimize)"
        )

    def test_action_constructors(self):
        assert set_overflow_method("j", "left_flush").argument == "left_flush"
        assert alter_memory("j", 1024).argument == 1024
        assert deactivate("x").target == "x"
        assert activate("coll", "child").argument == "child"
        assert reschedule().target == ""
        assert return_error("boom").argument == "boom"


class TestValidateRuleSet:
    def test_duplicate_names_rejected(self):
        rules = [
            Rule("r", "o", EventType.CLOSED, "a", actions=[replan()]),
            Rule("r", "o", EventType.CLOSED, "b", actions=[replan()]),
        ]
        with pytest.raises(RuleError):
            validate_rule_set(rules)

    def test_conflicting_activate_deactivate_rejected(self):
        rules = [
            Rule("r1", "o", EventType.TIMEOUT, "a", actions=[activate("coll", "x")]),
            Rule("r2", "o", EventType.TIMEOUT, "a", actions=[deactivate("coll")]),
        ]
        with pytest.raises(RuleError):
            validate_rule_set(rules)

    def test_conflicting_overflow_methods_rejected(self):
        rules = [
            Rule("r1", "o", EventType.OUT_OF_MEMORY, "j", actions=[set_overflow_method("j", "left_flush")]),
            Rule("r2", "o", EventType.OUT_OF_MEMORY, "j", actions=[set_overflow_method("j", "symmetric_flush")]),
        ]
        with pytest.raises(RuleError):
            validate_rule_set(rules)

    def test_non_conflicting_set_accepted(self):
        rules = [
            Rule("r1", "o", EventType.TIMEOUT, "a", actions=[reschedule()]),
            Rule("r2", "o", EventType.TIMEOUT, "b", actions=[deactivate("a")]),
            Rule("r3", "o", EventType.CLOSED, "frag", actions=[replan()]),
        ]
        validate_rule_set(rules)
