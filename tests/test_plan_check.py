"""Static plan validation: malformed trees rejected, real plans admitted.

The check always runs, through two entry points: ``check_tree`` — called by
``build_operator`` and ``QueryServer.submit`` — and ``check_plan``, called by
``QueryServer.submit_plan``.  Every rejection here is asserted on the entry
point and on each wiring point that runs it, with the pass's finding codes:
``schema-mismatch``, ``unbound-key``, ``encoding-mismatch``,
``bad-lane-count``, ``sub-floor-allotment``.  A Hypothesis property over
random trees closes the loop: what the check accepts runs, and what names an
attribute no input produces is refused before any operator exists.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.plan_check import check_plan, check_tree
from repro.engine.builder import build_operator
from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import OptimizationError, PlanValidationError, SchemaError
from repro.optimizer.memory_alloc import MIN_JOIN_ALLOTMENT_BYTES
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import (
    JoinImplementation,
    OperatorSpec,
    OperatorType,
    exchange,
    join,
    next_operator_id,
    project_,
    select_,
    table_scan,
    union_,
    wrapper_scan,
)
from repro.query.conjunctive import SelectionPredicate
from repro.server import QueryServer, SessionStatus
from repro.storage.schema import Schema

from helpers import examples, iterate, multiset, reference_join


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


def tree_findings(spec: OperatorSpec, catalog) -> list:
    """The findings ``check_tree`` raises for ``spec``.

    The builder and ``QueryServer.submit`` must refuse the same tree with the
    same findings: the builder before it instantiates any operator, the
    server before the session takes an id, a clock or a place in the queue.
    """
    with pytest.raises(PlanValidationError) as checked:
        check_tree(spec, catalog)
    context = ExecutionContext(catalog)
    with pytest.raises(PlanValidationError) as built:
        build_operator(spec, context)
    assert built.value.findings == checked.value.findings
    assert not context.operators  # nothing was instantiated
    server = QueryServer(catalog)
    with pytest.raises(PlanValidationError) as submitted:
        server.submit(spec, "bad")
    assert submitted.value.findings == checked.value.findings
    assert not server.sessions and not server.clock.session_clocks
    return checked.value.findings


def plan_findings(plan: QueryPlan, catalog) -> list:
    """The findings ``check_plan`` raises; ``submit_plan`` must refuse them too."""
    with pytest.raises(PlanValidationError) as checked:
        check_plan(plan, catalog)
    server = QueryServer(catalog)
    with pytest.raises(PlanValidationError) as submitted:
        server.submit_plan(plan, "bad")
    assert codes(submitted.value.findings) == codes(checked.value.findings)
    assert not server.sessions and not server.clock.session_clocks
    return checked.value.findings


class TestTreeValidation:
    def test_well_formed_join_is_clean(self, joinable_catalog):
        check_tree(good_join(), joinable_catalog)

    def test_unknown_join_key_rejected(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        findings = tree_findings(spec, joinable_catalog)
        assert codes(findings) == {"unbound-key"}
        assert "'ord.nope'" in findings[0].message
        assert "ord.o_id" in findings[0].message  # actionable: shows the real schema

    def test_union_arity_mismatch_rejected(self, joinable_catalog):
        spec = union_([wrapper_scan("ord"), wrapper_scan("item")])  # 2 cols vs 3
        findings = tree_findings(spec, joinable_catalog)
        assert codes(findings) == {"schema-mismatch"}
        assert "input #1" in findings[0].message

    def test_compatible_union_is_clean(self, joinable_catalog):
        check_tree(union_([wrapper_scan("ord"), wrapper_scan("ord")]), joinable_catalog)

    def test_projection_of_missing_attribute_rejected(self, joinable_catalog):
        spec = project_(wrapper_scan("ord"), ["ord.o_id", "ord.ghost"])
        findings = tree_findings(spec, joinable_catalog)
        assert codes(findings) == {"schema-mismatch"}
        assert "ord.ghost" in findings[0].message

    def test_self_join_duplicate_names_rejected(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("ord"), ["ord.o_id"], ["ord.o_id"]
        )
        findings = tree_findings(spec, joinable_catalog)
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
        findings = [f for f in tree_findings(spec, joinable_catalog) if f.operator_id == "dj"]
        assert codes(findings) == {"unbound-key"}
        assert "bind key" in findings[0].message

    def test_unknown_source_stops_schema_propagation(self, joinable_catalog):
        # An unregistered source stays the catalog's CatalogError at build
        # time; the validator must not guess (or crash on) its schema.
        spec = join(
            wrapper_scan("ghost_source"), wrapper_scan("item"), ["x"], ["item.i_order"]
        )
        check_tree(spec, joinable_catalog)


class TestExchangeValidation:
    def test_well_formed_exchange_is_clean(self, joinable_catalog):
        check_tree(exchange(good_join(), ["ord.o_id"], 2), joinable_catalog)

    def test_unbound_partition_key_rejected(self, joinable_catalog):
        spec = exchange(good_join(), ["ord.ghost"], 2)
        findings = tree_findings(spec, joinable_catalog)
        assert codes(findings) == {"unbound-key"}
        assert "'ord.ghost'" in findings[0].message
        assert "routed" in findings[0].message  # says why the key matters

    def test_non_positive_lane_count_rejected(self, joinable_catalog):
        findings = tree_findings(exchange(good_join(), ["ord.o_id"], 0), joinable_catalog)
        assert codes(findings) == {"bad-lane-count"}
        assert "0" in findings[0].message

    def test_bool_lane_count_rejected(self, joinable_catalog):
        # bool is an int subtype; the validator must not accept lanes=True.
        spec = exchange(good_join(), ["ord.o_id"], 2)
        spec.params["lanes"] = True
        findings = tree_findings(spec, joinable_catalog)
        assert codes(findings) == {"bad-lane-count"}

    def test_schema_passes_through_unchanged(self, joinable_catalog):
        # The exchange is transparent: a parent projecting the child schema
        # still validates above it.
        spec = project_(exchange(good_join(), ["ord.o_id"], 2), ["ord.o_id", "item.i_sku"])
        check_tree(spec, joinable_catalog)


class TestEncodingConsistency:
    def mismatched(self) -> OperatorSpec:
        # o_cust is str (dictionary-encoded), i_qty is int (plain codes).
        return join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_cust"], ["item.i_qty"]
        )

    def test_mixed_key_encoding_rejected(self, joinable_catalog):
        findings = tree_findings(self.mismatched(), joinable_catalog)
        assert codes(findings) == {"encoding-mismatch"}
        assert "dictionary-encoded" in findings[0].message

    def test_declared_translation_is_the_escape_hatch(self, joinable_catalog):
        spec = self.mismatched()
        spec.params["key_translation"] = "decode"
        check_tree(spec, joinable_catalog)

    def test_both_sides_encoded_is_clean(self, joinable_catalog):
        spec = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.o_cust"], ["item.i_sku"]
        )
        check_tree(spec, joinable_catalog)


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

    def test_valid_tree_builds_and_runs_unchanged(self, context, orders_and_items):
        operator = build_operator(good_join(), context)
        operator.open()
        produced = list(iterate(operator))
        orders, items = orders_and_items
        expected = reference_join(orders, items, "ord.o_id", "item.i_order")
        assert multiset(produced) == multiset(expected)

    def test_sub_floor_allotment_allowed_on_hand_built_trees(self, context):
        # Tests and benchmarks force overflow with tiny allotments; the floor
        # is an admission-time (plan-level) invariant only.
        check_tree(good_join(memory_limit_bytes=256), context.catalog)
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
        check_plan(plan, joinable_catalog)
        bad_consumer = join(
            table_scan("ord_mat"), wrapper_scan("item"), ["ord.ghost"], ["item.i_order"]
        )
        bad_plan = QueryPlan(
            query_name="q",
            fragments=[scan_frag, Fragment("f2", bad_consumer, result_name="answer")],
            dependencies={"f2": {"f1"}},
        )
        # Only the plan pass knows ord_mat's schema: the tree alone is clean.
        check_tree(bad_consumer, joinable_catalog)
        assert codes(plan_findings(bad_plan, joinable_catalog)) == {"unbound-key"}

    def test_sub_floor_allotment_rejected_at_plan_level(self, joinable_catalog):
        plan = self.plan(good_join(memory_limit_bytes=MIN_JOIN_ALLOTMENT_BYTES - 1))
        with pytest.raises(PlanValidationError) as excinfo:
            check_plan(plan, joinable_catalog)
        assert codes(excinfo.value.findings) == {"sub-floor-allotment"}
        assert str(MIN_JOIN_ALLOTMENT_BYTES) in excinfo.value.findings[0].message
        # At the server, broker negotiation refuses a sub-floor demand even
        # before the check runs; either way no session is admitted.
        server = QueryServer(joinable_catalog)
        with pytest.raises(OptimizationError):
            server.submit_plan(plan, "bad")
        assert not server.sessions and not server.clock.session_clocks

    def test_floor_exactly_met_is_clean(self, joinable_catalog):
        plan = self.plan(good_join(memory_limit_bytes=MIN_JOIN_ALLOTMENT_BYTES))
        check_plan(plan, joinable_catalog)


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
        assert "bad" not in server.clock.session_clocks  # nor its clock

    def test_malformed_tree_rejected_at_submit(self, joinable_catalog):
        server = QueryServer(joinable_catalog)
        bad = join(
            wrapper_scan("ord"), wrapper_scan("item"), ["ord.nope"], ["item.i_order"]
        )
        with pytest.raises(PlanValidationError):
            server.submit(bad, "bad")
        assert "bad" not in server.sessions
        # The refused tree took no admission index: the next session is #1.
        assert server.submit(good_join(), "good").admission_index == 1

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


# -- the property: what the check accepts runs, what names a ghost is refused --------------

#: An attribute no schema has.  A key, projected name or bind key drawn as
#: this can never resolve; a selection predicate over it is legal (never
#: satisfied), so selects draw it without marking the tree.
GHOST = "ord.ghost"


def _fresh_copy(spec: OperatorSpec) -> OperatorSpec:
    """``spec`` with new operator ids throughout (a union may repeat a subtree)."""
    return replace(
        spec,
        operator_id=next_operator_id(spec.operator_type.value),
        children=[_fresh_copy(child) for child in spec.children],
        params=dict(spec.params),
    )


@st.composite
def spec_trees(draw, sources: dict[str, Schema], depth: int = 3):
    """A random tree over ``sources``: ``(spec, schema, unbound)``.

    ``schema`` is what the storage layer derives for the tree (``None``
    where it cannot: a ghost projection, duplicate join names, incompatible
    union inputs), and ``unbound`` says a key or projected name is
    :data:`GHOST`.  Keys and names are drawn from the input's real schema or
    as the ghost.
    """
    every_name = sorted({a.name for schema in sources.values() for a in schema})

    def name_in(schema: Schema | None, type_name: str | None = None) -> str:
        """A name of ``schema``, of ``type_name`` where it has one; one in eight is the ghost."""
        if not draw(st.integers(0, 7)):
            return GHOST
        names = [
            a.name for a in (schema or []) if type_name in (None, a.type_name)
        ] or [a.name for a in (schema or [])]
        return draw(st.sampled_from(names or every_name))

    def type_of(schema: Schema | None, name: str) -> str | None:
        known = schema is not None and name in schema
        return schema.attribute(name).type_name if known else None

    kinds = ["scan", "select", "project", "union", "join", "dependent"]
    kind = draw(st.sampled_from(kinds if depth else ["scan"]))
    if kind == "scan":
        source = draw(st.sampled_from(sorted(sources)))
        return wrapper_scan(source), sources[source], False
    child, schema, unbound = draw(spec_trees(sources, depth - 1))
    if kind == "select":
        name = name_in(schema)
        value = "bob" if type_of(schema, name) == "str" else 2
        relation, _, attribute = name.partition(".")
        predicate = SelectionPredicate(relation, attribute, "!=", value)
        return select_(child, [predicate]), schema, unbound
    if kind == "project":
        names = list(dict.fromkeys(
            name_in(schema) for _ in range(draw(st.integers(1, 3)))
        ))
        try:
            projected = schema.project(names) if schema is not None else None
        except SchemaError:
            projected = None
        return project_(child, names), projected, unbound or GHOST in names
    if kind == "union":
        other, other_schema, other_unbound = (
            (_fresh_copy(child), schema, unbound)
            if draw(st.booleans())
            else draw(spec_trees(sources, depth - 1))
        )
        compatible = (
            schema is not None
            and other_schema is not None
            and schema.compatible_with(other_schema)
        )
        return (
            union_([child, other]),
            schema if compatible else None,
            unbound or other_unbound,
        )
    # Mostly join sources the left input does not carry already: two copies
    # of one source repeat every name, and only a duplicate-name check runs.
    other_sources = {
        name: source_schema
        for name, source_schema in sources.items()
        if schema is None or not set(source_schema.names) & set(schema.names)
    }
    if other_sources and draw(st.integers(0, 3)):
        sources = other_sources
    if kind == "join":
        right, right_schema, right_unbound = draw(spec_trees(sources, depth - 1))
        implementation = draw(st.sampled_from(
            [JoinImplementation.DOUBLE_PIPELINED, JoinImplementation.HYBRID_HASH]
        ))
    else:
        source = draw(st.sampled_from(sorted(sources)))
        right, right_schema, right_unbound = wrapper_scan(source), sources[source], False
    left_key = name_in(schema)
    right_key = name_in(right_schema, type_of(schema, left_key))
    try:
        known = schema is not None and right_schema is not None
        joined = schema.join(right_schema) if known else None
    except SchemaError:
        joined = None
    unbound = unbound or right_unbound or GHOST in (left_key, right_key)
    if kind == "join":
        return join(child, right, [left_key], [right_key], implementation), joined, unbound
    spec = OperatorSpec(
        next_operator_id("dependent"),
        OperatorType.DEPENDENT_JOIN,
        children=[child, right],
        params={"source": source, "left_keys": [left_key], "right_keys": [right_key]},
    )
    return spec, joined, unbound


class TestCheckTreeProperty:
    @given(data=st.data())
    @settings(
        max_examples=examples(300),
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_accepted_trees_run_and_ghosts_are_refused(self, data, joinable_catalog):
        sources = {
            name: joinable_catalog.source(name).exported_schema
            for name in joinable_catalog.source_names
        }
        spec, schema, unbound = data.draw(spec_trees(sources))
        context = ExecutionContext(joinable_catalog)
        try:
            operator = build_operator(spec, context)
        except PlanValidationError as exc:
            assert not context.operators
            if unbound:
                assert codes(exc.findings) & {"unbound-key", "schema-mismatch"}
            return
        assert not unbound, f"accepted a tree naming {GHOST!r}:\n{spec.describe()}"
        # Accepted: the storage layer agrees on the schema, and it drains.
        assert operator.output_schema.names == schema.names
        operator.open()
        try:
            while operator.next_batch(64):
                pass
        finally:
            operator.close()

