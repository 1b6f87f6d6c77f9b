"""Unit tests for repro.plan.physical."""

import pytest

from repro.errors import PlanError
from repro.plan.physical import (
    JoinImplementation,
    OperatorSpec,
    OperatorType,
    OverflowMethod,
    choose,
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


class TestOperatorSpec:
    def test_arity_enforced(self):
        scan = wrapper_scan("src")
        with pytest.raises(PlanError):
            OperatorSpec("bad", OperatorType.JOIN, children=[scan])
        with pytest.raises(PlanError):
            OperatorSpec("bad", OperatorType.WRAPPER_SCAN, children=[scan], params={"source": "s"})
        with pytest.raises(PlanError):
            OperatorSpec("bad", OperatorType.SELECT, children=[], params={"predicates": []})

    def test_empty_id_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("", OperatorType.TABLE_SCAN, params={"relation": "r"})

    def test_walk_and_find(self):
        tree = join(
            wrapper_scan("a", operator_id="sa"),
            wrapper_scan("b", operator_id="sb"),
            ["a.x"],
            ["b.x"],
            operator_id="j1",
        )
        ids = [node.operator_id for node in tree.walk()]
        assert ids[0] == "j1"
        assert set(ids) == {"j1", "sa", "sb"}
        assert tree.find("sb").params["source"] == "b"
        with pytest.raises(PlanError):
            tree.find("nope")

    def test_leaf_sources(self):
        tree = join(
            wrapper_scan("a"), table_scan("cached"), ["a.x"], ["cached.x"]
        )
        assert tree.leaf_sources() == ["a"]

    def test_describe_contains_ids_and_estimates(self):
        tree = join(
            wrapper_scan("a"),
            wrapper_scan("b"),
            ["a.x"],
            ["b.x"],
            estimated_cardinality=123,
            operator_id="jX",
        )
        text = tree.describe()
        assert "jX" in text
        assert "est=123" in text
        assert "a.x=b.x" in text


class TestConstructors:
    def test_join_defaults(self):
        spec = join(wrapper_scan("a"), wrapper_scan("b"), ["a.x"], ["b.x"])
        assert spec.implementation == JoinImplementation.DOUBLE_PIPELINED.value
        assert spec.params["overflow_method"] == OverflowMethod.LEFT_FLUSH.value

    def test_join_key_length_mismatch(self):
        with pytest.raises(PlanError):
            join(wrapper_scan("a"), wrapper_scan("b"), ["a.x"], ["b.x", "b.y"])

    def test_select_and_project(self):
        scan = wrapper_scan("a")
        sel = select_(scan, [SelectionPredicate("a", "x", ">", 1)])
        proj = project_(sel, ["a.x"])
        assert sel.operator_type == OperatorType.SELECT
        assert proj.params["attributes"] == ["a.x"]

    def test_union_collector_choose(self):
        scans = [wrapper_scan("a"), wrapper_scan("b")]
        assert union_(scans).operator_type == OperatorType.UNION
        coll = collector(scans, policy_name="race")
        assert coll.params["policy"] == "race"
        assert choose(scans).operator_type == OperatorType.CHOOSE

    def test_materialize(self):
        spec = materialize(wrapper_scan("a"), "result1")
        assert spec.params["result_name"] == "result1"

    def test_generated_ids_unique(self):
        ids = {wrapper_scan("a").operator_id for _ in range(10)}
        assert len(ids) == 10
