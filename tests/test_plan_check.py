"""Static plan validation: malformed trees rejected, real plans admitted.

The validator runs by default (``EngineConfig(validate_plans=True)``) in two
places — ``build_operator`` for single trees and ``QueryServer.submit_plan``
for full plans — so these tests exercise both wiring points plus the
validator's own finding codes: ``schema-mismatch``, ``unbound-key``,
``encoding-mismatch``, ``sub-floor-allotment``.
"""

from __future__ import annotations

import pytest

from repro.analysis.plan_check import check_tree, validate_plan, validate_tree
from repro.engine.builder import build_operator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import PlanValidationError
from repro.optimizer.memory_alloc import MIN_JOIN_ALLOTMENT_BYTES
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import (
    OperatorSpec,
    OperatorType,
    exchange,
    join,
    project_,
    table_scan,
    union_,
    wrapper_scan,
)
from repro.server import QueryServer, SessionStatus

from helpers import multiset, reference_join


def good_join(memory_limit_bytes: int | None = None) -> OperatorSpec:
    return join(
        wrapper_scan("ord"),
        wrapper_scan("item"),
        ["ord.o_id"],
        ["item.i_order"],
        memory_limit_bytes=memory_limit_bytes,
    )


def codes(findings) -> set[str]:
    return {finding.code for finding in findings}


class TestTreeValidation:
    def test_well_formed_join_is_clean(self, joinable_catalog):
        assert validate_tree(good_join(), joinable_catalog) == []

    def test_unknown_join_key_rejected(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"unbound-key"}
        assert "'ord.nope'" in findings[0].message
        assert "ord.o_id" in findings[0].message  # actionable: shows the real schema
        with pytest.raises(PlanValidationError) as excinfo:
            check_tree(spec, joinable_catalog)
        assert excinfo.value.findings == findings

    def test_union_arity_mismatch_rejected(self, joinable_catalog):
        spec = union_([wrapper_scan("ord"), wrapper_scan("item")])  # 2 cols vs 3
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"schema-mismatch"}
        assert "input #1" in findings[0].message

    def test_compatible_union_is_clean(self, joinable_catalog):
        spec = union_([wrapper_scan("ord"), wrapper_scan("ord")])
        assert validate_tree(spec, joinable_catalog) == []

    def test_projection_of_missing_attribute_rejected(self, joinable_catalog):
        spec = project_(wrapper_scan("ord"), ["ord.o_id", "ord.ghost"])
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"schema-mismatch"}
        assert "ord.ghost" in findings[0].message

    def test_self_join_duplicate_names_rejected(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("ord"), ["ord.o_id"], ["ord.o_id"]
        )
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"schema-mismatch"}
        assert "duplicate attribute names" in findings[0].message

    def test_dependent_join_unbound_bind_key_rejected(self, joinable_catalog):
        spec = OperatorSpec(
            "dj",
            OperatorType.DEPENDENT_JOIN,
            children=[wrapper_scan("ord"), wrapper_scan("item")],
            params={
                "source": "item",
                "left_keys": ["ord.ghost"],
                "right_keys": ["item.i_order"],
            },
        )
        findings = [f for f in validate_tree(spec, joinable_catalog) if f.operator_id == "dj"]
        assert codes(findings) == {"unbound-key"}
        assert "bind key" in findings[0].message

    def test_unknown_source_stops_schema_propagation(self, joinable_catalog):
        # An unregistered source stays the catalog's CatalogError at build
        # time; the validator must not guess (or crash on) its schema.
        spec = join(
            wrapper_scan("ghost_source"), wrapper_scan("item"), ["x"], ["item.i_order"]
        )
        assert validate_tree(spec, joinable_catalog) == []


class TestExchangeValidation:
    def test_well_formed_exchange_is_clean(self, joinable_catalog):
        spec = exchange(good_join(), ["ord.o_id"], 2)
        assert validate_tree(spec, joinable_catalog) == []

    def test_unbound_partition_key_rejected(self, joinable_catalog):
        spec = exchange(good_join(), ["ord.ghost"], 2)
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"unbound-key"}
        assert "'ord.ghost'" in findings[0].message
        assert "routed" in findings[0].message  # says why the key matters

    def test_non_positive_lane_count_rejected(self, joinable_catalog):
        findings = validate_tree(exchange(good_join(), ["ord.o_id"], 0), joinable_catalog)
        assert codes(findings) == {"bad-lane-count"}
        assert "0" in findings[0].message

    def test_bool_lane_count_rejected(self, joinable_catalog):
        # bool is an int subtype; the validator must not accept lanes=True.
        spec = exchange(good_join(), ["ord.o_id"], 2)
        spec.params["lanes"] = True
        findings = validate_tree(spec, joinable_catalog)
        assert codes(findings) == {"bad-lane-count"}

    def test_schema_passes_through_unchanged(self, joinable_catalog):
        # The exchange is transparent: a parent projecting the child schema
        # still validates above it.
        spec = project_(exchange(good_join(), ["ord.o_id"], 2), ["ord.o_id", "item.i_sku"])
        assert validate_tree(spec, joinable_catalog) == []


class TestEncodingConsistency:
    def mismatched(self) -> OperatorSpec:
        # o_cust is str (dictionary-encoded), i_qty is int (plain codes).
        return join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_cust"], ["item.i_qty"]
        )

    def test_mixed_key_encoding_rejected(self, joinable_catalog):
        findings = validate_tree(self.mismatched(), joinable_catalog)
        assert codes(findings) == {"encoding-mismatch"}
        assert "dictionary-encoded" in findings[0].message

    def test_clean_when_encoding_disabled(self, joinable_catalog):
        assert validate_tree(self.mismatched(), joinable_catalog, encoded=False) == []

    def test_declared_translation_is_the_escape_hatch(self, joinable_catalog):
        spec = self.mismatched()
        spec.params["key_translation"] = "decode"
        assert validate_tree(spec, joinable_catalog) == []

    def test_both_sides_encoded_is_clean(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_cust"], ["item.i_sku"]
        )
        assert validate_tree(spec, joinable_catalog) == []


class TestBuilderWiring:
    def test_malformed_tree_rejected_before_building(self, context):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        with pytest.raises(PlanValidationError) as excinfo:
            build_operator(spec, context)
        assert "unbound-key" in str(excinfo.value)
        assert excinfo.value.findings  # every violation is carried, not just one
        assert not context.operators  # nothing was instantiated

    def test_validation_can_be_opted_out(self, context):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        operator = build_operator(spec, context, validate=False)
        assert isinstance(operator, Operator)

    def test_config_flag_disables_validation(self, joinable_catalog):
        context = ExecutionContext(
            joinable_catalog, config=EngineConfig(validate_plans=False)
        )
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        assert isinstance(build_operator(spec, context), Operator)

    def test_valid_tree_builds_and_runs_unchanged(self, context, orders_and_items):
        operator = build_operator(good_join(), context)
        operator.open()
        produced = list(operator.iterate())
        orders, items = orders_and_items
        expected = reference_join(orders, items, "ord.o_id", "item.i_order")
        assert multiset(produced) == multiset(expected)

    def test_sub_floor_allotment_allowed_on_hand_built_trees(self, context):
        # Tests and benchmarks force overflow with tiny allotments; the floor
        # is an admission-time (plan-level) invariant only.
        operator = build_operator(good_join(memory_limit_bytes=256), context)
        assert isinstance(operator, Operator)


class TestPlanValidation:
    def plan(self, root: OperatorSpec) -> QueryPlan:
        return QueryPlan(
            query_name="q", fragments=[Fragment("f1", root, result_name="answer")]
        )

    def test_cross_fragment_schema_propagates(self, joinable_catalog):
        scan_frag = Fragment("f1", wrapper_scan("ord"), result_name="ord_mat")
        consumer = join(
            table_scan("ord_mat"), wrapper_scan("item"), ["ord.o_id"], ["item.i_order"]
        )
        plan = QueryPlan(
            query_name="q",
            fragments=[scan_frag, Fragment("f2", consumer, result_name="answer")],
            dependencies={"f2": {"f1"}},
        )
        assert validate_plan(plan, joinable_catalog) == []
        bad_consumer = join(
            table_scan("ord_mat"), wrapper_scan("item"), ["ord.ghost"], ["item.i_order"]
        )
        bad_plan = QueryPlan(
            query_name="q",
            fragments=[scan_frag, Fragment("f2", bad_consumer, result_name="answer")],
            dependencies={"f2": {"f1"}},
        )
        assert codes(validate_plan(bad_plan, joinable_catalog)) == {"unbound-key"}

    def test_sub_floor_allotment_rejected_at_plan_level(self, joinable_catalog):
        plan = self.plan(good_join(memory_limit_bytes=MIN_JOIN_ALLOTMENT_BYTES - 1))
        findings = validate_plan(plan, joinable_catalog)
        assert codes(findings) == {"sub-floor-allotment"}
        assert validate_plan(plan, joinable_catalog, enforce_floor=False) == []

    def test_floor_exactly_met_is_clean(self, joinable_catalog):
        plan = self.plan(good_join(memory_limit_bytes=MIN_JOIN_ALLOTMENT_BYTES))
        assert validate_plan(plan, joinable_catalog) == []


class TestServerAdmission:
    def test_malformed_plan_rejected_at_submit(self, joinable_catalog):
        server = QueryServer(joinable_catalog)
        bad = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        plan = QueryPlan(
            query_name="bad", fragments=[Fragment("f1", bad, result_name="answer")]
        )
        with pytest.raises(PlanValidationError):
            server.submit_plan(plan, "bad")
        assert "bad" not in server.sessions  # no half-admitted session remains

    def test_validation_opt_out_at_submit(self, joinable_catalog):
        server = QueryServer(joinable_catalog)
        bad = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        plan = QueryPlan(
            query_name="bad", fragments=[Fragment("f1", bad, result_name="answer")]
        )
        session = server.submit_plan(
            plan, "bad", engine_config=EngineConfig(validate_plans=False)
        )
        assert session.session_id == "bad"

    def test_good_plan_admitted_and_runs(self, joinable_catalog, orders_and_items):
        server = QueryServer(joinable_catalog)
        plan = QueryPlan(
            query_name="good",
            fragments=[Fragment("f1", good_join(), result_name="answer")],
        )
        session = server.submit_plan(plan, "good")
        server.run()
        assert session.status == SessionStatus.COMPLETED
        orders, items = orders_and_items
        expected = reference_join(orders, items, "ord.o_id", "item.i_order")
        assert multiset(session.result) == multiset(expected)
