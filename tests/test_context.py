"""Unit tests for repro.engine.context."""

import pytest

from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.scan import WrapperScan
from repro.errors import ExecutionError
from repro.plan.rules import EventType

from helpers import next_row


class TestWrapperManagement:
    def test_each_call_creates_a_fresh_wrapper(self, context):
        w1 = context.create_wrapper("ord")
        w2 = context.create_wrapper("ord")
        assert w1 is not w2

    def test_wrapper_uses_default_timeout(self, joinable_catalog):
        ctx = ExecutionContext(joinable_catalog, config=EngineConfig(default_timeout_ms=123.0))
        assert ctx.create_wrapper("ord").timeout_ms == 123.0

    def test_wrapper_timeout_override(self, context):
        wrapper = context.create_wrapper("item", timeout_ms=5.0)
        assert wrapper.timeout_ms == 5.0


class TestOperatorRegistry:
    def test_register_and_lookup(self, context):
        scan = WrapperScan("scan1", context, "ord")
        assert context.operator("scan1") is scan
        assert context.has_operator("scan1")
        with pytest.raises(ExecutionError):
            context.operator("ghost")

    def test_deactivation_flags(self, context):
        context.deactivate("op1")
        assert context.is_deactivated("op1")
        context.reactivate("op1")
        assert not context.is_deactivated("op1")


class TestRuntimeContextProtocol:
    def test_operator_state_reflects_deactivation(self, context):
        WrapperScan("scan1", context, "ord")
        assert context.operator_state("scan1") == "pending"
        context.deactivate("scan1")
        assert context.operator_state("scan1") == "deactivated"

    def test_operator_card_counts_output(self, context):
        scan = WrapperScan("scan1", context, "ord")
        scan.open()
        next_row(scan)
        assert context.operator_card("scan1") == 1

    def test_operator_est_card(self, context):
        WrapperScan("scan1", context, "ord", estimated_cardinality=77)
        assert context.operator_est_card("scan1") == 77
        assert context.operator_est_card("missing") is None

    def test_operator_memory_zero_without_budget(self, context):
        WrapperScan("scan1", context, "ord")
        assert context.operator_memory("scan1") == 0
        assert context.operator_memory("missing") == 0

    def test_time_since_last_tuple(self, context):
        scan = WrapperScan("scan1", context, "ord")
        scan.open()
        assert context.operator_time_since_last_tuple("scan1") == context.clock.now
        next_row(scan)
        assert context.operator_time_since_last_tuple("scan1") == 0.0
        context.clock.consume_cpu(5.0)
        assert context.operator_time_since_last_tuple("scan1") == pytest.approx(5.0)

    def test_emit_event_stamps_current_time(self, context):
        context.clock.consume_cpu(3.0)
        context.emit_event(EventType.OPENED, "x")
        event = context.events.pop()
        assert event.at_time == pytest.approx(3.0)
