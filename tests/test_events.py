"""Unit tests for repro.engine.events and repro.engine.event_handler."""

import pytest

from repro.engine.event_handler import EventHandler
from repro.engine.events import EventQueue
from repro.errors import RuleError
from repro.plan.rules import (
    Compare,
    Event,
    EventType,
    Rule,
    constant,
    deactivate,
    event_value,
    replan,
    reschedule,
)

from helpers import drain
from test_rules import FakeContext


class TestEventQueue:
    def test_fifo_order(self):
        queue = EventQueue()
        queue.emit(EventType.OPENED, "a")
        queue.emit(EventType.CLOSED, "a")
        assert queue.pop().event_type == EventType.OPENED
        assert queue.pop().event_type == EventType.CLOSED
        assert queue.pop() is None

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.emit(EventType.OPENED, "a")
        assert queue
        assert len(queue) == 1

    def test_drain(self):
        queue = EventQueue()
        queue.emit(EventType.OPENED, "a")
        queue.emit(EventType.OPENED, "b")
        drained = drain(queue)
        assert [e.subject for e in drained] == ["a", "b"]
        assert not queue
        assert queue.total_enqueued == 2

    def test_emit_returns_event_with_time(self):
        queue = EventQueue()
        event = queue.emit(EventType.TIMEOUT, "src", value=None, at_time=12.5)
        assert event.at_time == 12.5
        assert "timeout(src)" in str(event)


def make_handler(context=None, log=None):
    log = log if log is not None else []

    def executor(action, event):
        log.append((action.action_type.value, action.target, event.subject))

    return EventHandler(context or FakeContext(), executor), log


class TestEventHandler:
    def test_matching_rule_fires_once(self):
        handler, log = make_handler()
        handler.register(Rule("r1", "own", EventType.CLOSED, "frag1", actions=[replan()]))
        queue = EventQueue()
        queue.emit(EventType.CLOSED, "frag1")
        queue.emit(EventType.CLOSED, "frag1")
        fired = handler.process(queue)
        assert fired == 1  # firing makes the rule inactive
        assert len(log) == 1
        assert handler.rules_fired == 1
        assert handler.events_processed == 2

    def test_condition_gate(self):
        handler, log = make_handler()
        handler.register(
            Rule(
                "r1",
                "own",
                EventType.THRESHOLD,
                "src",
                condition=Compare(event_value(), ">=", constant(10)),
                actions=[deactivate("other")],
            )
        )
        handler.process_event(Event(EventType.THRESHOLD, "src", value=5))
        assert log == []
        handler.process_event(Event(EventType.THRESHOLD, "src", value=11))
        assert log == [("deactivate", "other", "src")]

    def test_non_matching_subject_ignored(self):
        handler, log = make_handler()
        handler.register(Rule("r1", "own", EventType.TIMEOUT, "srcA", actions=[reschedule()]))
        handler.process_event(Event(EventType.TIMEOUT, "srcB"))
        assert log == []

    def test_inactive_owner_suppresses_rule(self):
        handler, log = make_handler()
        handler.register(Rule("r1", "coll1", EventType.TIMEOUT, "srcA", actions=[reschedule()]))
        handler.deactivate_owner("coll1")
        handler.process_event(Event(EventType.TIMEOUT, "srcA"))
        assert log == []

    def test_all_actions_of_a_rule_execute_in_order(self):
        handler, log = make_handler()
        handler.register(
            Rule(
                "r1",
                "own",
                EventType.TIMEOUT,
                "srcA",
                actions=[deactivate("x"), deactivate("y"), reschedule()],
            )
        )
        handler.process_event(Event(EventType.TIMEOUT, "srcA"))
        assert [entry[0] for entry in log] == ["deactivate", "deactivate", "reschedule"]
        assert handler.actions_executed == 3

    def test_multiple_rules_same_event(self):
        handler, log = make_handler()
        handler.register(Rule("r1", "own", EventType.CLOSED, "f", actions=[replan()]))
        handler.register(Rule("r2", "own", EventType.CLOSED, "f", actions=[reschedule()]))
        handler.process_event(Event(EventType.CLOSED, "f"))
        assert len(log) == 2

    def test_earlier_rule_can_deactivate_later_rule_owner(self):
        context = FakeContext()
        fired = []

        handler = None

        def executor(action, event):
            fired.append(action.action_type.value)
            if action.action_type.value == "deactivate":
                handler.deactivate_owner(action.target)

        handler = EventHandler(context, executor)
        handler.register(Rule("r1", "own1", EventType.CLOSED, "f", actions=[deactivate("own2")]))
        handler.register(Rule("r2", "own2", EventType.CLOSED, "f", actions=[replan()]))
        handler.process_event(Event(EventType.CLOSED, "f"))
        # r2's owner was deactivated by r1 before r2 could fire.
        assert fired == ["deactivate"]

    def test_duplicate_rule_name_rejected(self):
        handler, _ = make_handler()
        handler.register(Rule("r1", "own", EventType.CLOSED, "f", actions=[replan()]))
        with pytest.raises(RuleError):
            handler.register(Rule("r1", "own", EventType.OPENED, "f", actions=[replan()]))

