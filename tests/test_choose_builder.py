"""Unit tests for choose nodes and the operator builder."""

import pytest

from repro.engine.builder import build_operator
from repro.engine.operators.choose import ChooseNode
from repro.engine.operators.collector import DynamicCollector
from repro.engine.operators.joins import DoublePipelinedJoin, HybridHashJoin, NestedLoopsJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import ExecutionError, PlanError
from repro.plan.physical import (
    JoinImplementation,
    OperatorSpec,
    OperatorType,
    collector,
    join,
    materialize,
    project_,
    select_,
    table_scan,
    union_,
    wrapper_scan,
)
from repro.query.conjunctive import SelectionPredicate

from helpers import iterate, make_relation


class TestChooseNode:
    def test_default_selection_prefers_non_deactivated(self, context):
        a = WrapperScan("a", context, "ord")
        b = WrapperScan("b", context, "ord")
        context.deactivate("a")
        node = ChooseNode("choose1", context, [a, b])
        node.open()
        list(iterate(node))
        assert (a.tuples_produced, b.tuples_produced) == (0, 3)

    def test_requires_children(self, context):
        with pytest.raises(ExecutionError):
            ChooseNode("choose1", context, [])


class TestBuilder:
    def test_builds_each_join_implementation(self, context):
        for implementation, cls in [
            (JoinImplementation.DOUBLE_PIPELINED, DoublePipelinedJoin),
            (JoinImplementation.HYBRID_HASH, HybridHashJoin),
            (JoinImplementation.NESTED_LOOPS, NestedLoopsJoin),
        ]:
            spec = join(
                wrapper_scan("ord"),
                wrapper_scan("item"),
                ["ord.o_id"],
                ["item.i_order"],
                implementation=implementation,
            )
            operator = build_operator(spec, context)
            assert isinstance(operator, cls)

    def test_join_output_correct_via_builder(self, joinable_catalog, context):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_id"], ["item.i_order"]
        )
        operator = build_operator(spec, context)
        operator.open()
        assert len(list(iterate(operator))) == 3

    def test_builds_scans_select_project_union_materialize(self, context):
        rel = make_relation("cached", ["x:int"], [(5,), (6,)])
        context.local_store.materialize(rel)
        pipeline = materialize(
            project_(
                select_(
                    table_scan("cached"),
                    [SelectionPredicate("cached", "x", ">", 5)],
                ),
                ["x"],
            ),
            "out",
        )
        operator = build_operator(pipeline, context)
        operator.open()
        rows = list(iterate(operator))
        operator.close()
        assert [row.values for row in rows] == [(6,)]
        assert "out" in context.local_store

        union_spec = union_([wrapper_scan("ord"), wrapper_scan("ord")])
        union_op = build_operator(union_spec, context)
        union_op.open()
        assert len(list(iterate(union_op))) == 6

    def test_builds_collector_with_params(self, context):
        spec = collector(
            [wrapper_scan("ord", operator_id="c1"), wrapper_scan("ord", operator_id="c2")],
            operator_id="coll1",
        )
        spec.params["initially_active"] = ["c1"]
        spec.params["dedup_keys"] = ["ord.o_id"]
        spec.params["fallback_on_failure"] = "false"
        operator = build_operator(spec, context)
        assert isinstance(operator, DynamicCollector)
        assert operator.dedup_keys == ["ord.o_id"]
        assert not operator.fallback_on_failure

    def test_builds_dependent_join(self, context):
        spec = OperatorSpec(
            "dj",
            OperatorType.DEPENDENT_JOIN,
            children=[wrapper_scan("ord"), wrapper_scan("item")],
            params={
                "source": "item",
                "left_keys": ["ord.o_id"],
                "right_keys": ["item.i_order"],
            },
        )
        operator = build_operator(spec, context)
        operator.open()
        assert len(list(iterate(operator))) == 3

    def test_missing_required_parameter(self, context):
        spec = OperatorSpec("bad", OperatorType.WRAPPER_SCAN, params={})
        with pytest.raises(PlanError):
            build_operator(spec, context)

    def test_unknown_join_implementation(self, context):
        spec = join(wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_id"], ["item.i_order"])
        spec.implementation = "merge_sort"
        with pytest.raises(PlanError):
            build_operator(spec, context)

    def test_timeout_parameter_propagated(self, context):
        spec = wrapper_scan("ord", timeout_ms=42.0)
        operator = build_operator(spec, context)
        assert operator.wrapper.timeout_ms == 42.0

    def test_estimated_cardinality_propagated(self, context):
        spec = wrapper_scan("ord")
        spec.estimated_cardinality = 33
        operator = build_operator(spec, context)
        assert operator.estimated_cardinality == 33
