"""Unit tests for the Optimizer facade (plans, fragmentation, re-optimization)."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.optimizer.optimizer import (
    Optimizer,
    OptimizerConfig,
    PlanningStrategy,
    ReoptimizationMode,
)
from repro.plan.physical import JoinImplementation, OperatorType
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate
from repro.query.reformulation import Reformulator
from repro.storage.memory import MB

from helpers import make_relation


def chain_catalog(sizes, with_mirror=False, publish=True):
    catalog = DataSourceCatalog()
    primary = None
    for name, size in sizes:
        rel = make_relation(name, ["k:int"], [(i,) for i in range(size)])
        source = DataSource(name, rel, lan())
        catalog.register_source(source, publish_statistics=publish)
        if primary is None:
            primary = source
    if with_mirror:
        mirror = make_mirror(primary, f"{primary.name}-mirror", wide_area())
        from repro.catalog.source_desc import SourceDescription

        catalog.register_source(
            mirror, SourceDescription(mirror.name, primary.relation.name)
        )
    return catalog


def chain_query(names):
    predicates = [JoinPredicate(names[i], "k", names[i + 1], "k") for i in range(len(names) - 1)]
    return ConjunctiveQuery(name="q", relations=names, join_predicates=predicates)


SIZES = [("a", 200), ("b", 10), ("c", 100), ("d", 20)]
NAMES = [name for name, _ in SIZES]


@pytest.fixture
def setup():
    catalog = chain_catalog(SIZES)
    optimizer = Optimizer(catalog)
    reformulated = Reformulator(catalog).reformulate(chain_query(NAMES))
    return catalog, optimizer, reformulated


class TestStrategies:
    def test_pipeline_strategy_single_fragment(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PIPELINE)
        assert len(result.plan.fragments) == 1
        assert not result.plan.partial
        join_count = sum(
            1
            for node in result.plan.fragments[0].root.walk()
            if node.operator_type == OperatorType.JOIN
        )
        assert join_count == 3

    def test_materialize_strategy_fragment_per_join(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE)
        assert len(result.plan.fragments) == 3
        # No replan rules in the plain materialize strategy.
        assert not any(
            rule.name.startswith("replan-") for rule in result.plan.all_rules()
        )

    def test_materialize_replan_attaches_replan_rules(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        replan_rules = [r for r in result.plan.all_rules() if r.name.startswith("replan-")]
        # Join selectivities are unknown, so every non-final fragment gets one.
        assert len(replan_rules) >= 1

    def test_partial_strategy_emits_only_first_fragment(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PARTIAL)
        assert result.plan.partial
        assert len(result.plan.fragments) == 1
        assert len(result.plan.fragments[0].covers) == 2

    def test_two_relation_query_not_partial(self):
        catalog = chain_catalog(SIZES[:2])
        optimizer = Optimizer(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES[:2]))
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PARTIAL)
        assert not result.plan.partial
        assert len(result.plan.fragments) == 1

    def test_should_plan_partially_without_statistics(self):
        catalog = chain_catalog(SIZES, publish=False)
        optimizer = Optimizer(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES))
        assert optimizer.should_plan_partially(reformulated)


class TestPhysicalChoices:
    def test_join_order_puts_small_relations_first(self, setup):
        catalog, optimizer, reformulated = setup
        # Make selectivities known so the optimizer trusts its estimates.
        for pred in reformulated.query.join_predicates:
            catalog.statistics.set_join_selectivity(pred.left_qualified, pred.right_qualified, 0.01)
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE)
        first_fragment = result.plan.fragments[0]
        # The first join should involve the small relations (b or d), not a x c.
        assert first_fragment.covers != frozenset({"a", "c"})

    def test_dpj_chosen_by_default(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PIPELINE)
        joins = [
            node
            for node in result.plan.fragments[0].root.walk()
            if node.operator_type == OperatorType.JOIN
        ]
        assert all(n.implementation == JoinImplementation.DOUBLE_PIPELINED.value for n in joins)

    def test_hybrid_hash_chosen_for_large_reliable_inputs(self):
        catalog = chain_catalog([("a", 5000), ("b", 5000)])
        for pred in [JoinPredicate("a", "k", "b", "k")]:
            catalog.statistics.set_join_selectivity(pred.left_qualified, pred.right_qualified, 0.001)
        optimizer = Optimizer(catalog, OptimizerConfig(dpj_max_build_bytes=64 * 1024))
        reformulated = Reformulator(catalog).reformulate(chain_query(["a", "b"]))
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PIPELINE)
        joins = [
            node
            for node in result.plan.fragments[0].root.walk()
            if node.operator_type == OperatorType.JOIN
        ]
        assert joins[0].implementation == JoinImplementation.HYBRID_HASH.value

    def test_hybrid_build_side_swap_reorients_the_keys(self):
        # ``a`` is the enumerator's left half and the smaller input, so the
        # hybrid join swaps it to the build (right) side with its key.
        catalog = chain_catalog([("a", 100), ("b", 5000)])
        catalog.statistics.set_join_selectivity("a.k", "b.k", 0.001)
        optimizer = Optimizer(catalog, OptimizerConfig(dpj_max_build_bytes=1024))
        reformulated = Reformulator(catalog).reformulate(chain_query(["a", "b"]))
        root = optimizer.optimize(reformulated, strategy=PlanningStrategy.PIPELINE).plan.fragments[0].root
        assert root.implementation == JoinImplementation.HYBRID_HASH.value
        assert [child.params["source"] for child in root.children] == ["b", "a"]
        assert (root.params["left_keys"], root.params["right_keys"]) == (["b.k"], ["a.k"])

    def test_memory_pool_divided_across_joins(self, setup):
        catalog, _, reformulated = setup
        optimizer = Optimizer(catalog, OptimizerConfig(memory_pool_bytes=4 * MB))
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE)
        limits = [
            node.memory_limit_bytes
            for fragment in result.plan.fragments
            for node in fragment.root.walk()
            if node.operator_type == OperatorType.JOIN
        ]
        assert all(limit is not None for limit in limits)
        assert sum(limits) <= 4 * MB + 3 * 64 * 1024

    def test_disjunctive_leaf_becomes_collector(self):
        catalog = chain_catalog(SIZES[:2], with_mirror=True)
        optimizer = Optimizer(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES[:2]))
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.PIPELINE)
        collectors = result.plan.collectors()
        assert len(collectors) == 1
        assert len(collectors[0].children) == 2
        assert collectors[0].params["dedup_keys"]


class TestReoptimization:
    def test_reoptimize_produces_plan_over_remaining_relations(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        first = result.plan.fragments[0]
        new_result = optimizer.reoptimize(
            result,
            reformulated,
            [(first.covers, first.result_name, 5)],
            mode=ReoptimizationMode.SAVED_STATE,
        )
        assert new_result.plan.fragments
        # Remaining fragments never re-join what was already covered.
        for fragment in new_result.plan.fragments:
            assert not fragment.covers <= first.covers
        # The materialized result is read through a table scan somewhere.
        table_scans = [
            node
            for fragment in new_result.plan.fragments
            for node in fragment.root.walk()
            if node.operator_type == OperatorType.TABLE_SCAN
        ]
        assert any(node.params["relation"] == first.result_name for node in table_scans)

    @pytest.mark.parametrize(
        "mode",
        [
            ReoptimizationMode.SAVED_STATE,
            ReoptimizationMode.SAVED_STATE_NO_POINTERS,
            ReoptimizationMode.SCRATCH,
        ],
    )
    def test_all_modes_cover_full_query(self, setup, mode):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        first = result.plan.fragments[0]
        new_result = optimizer.reoptimize(
            result, reformulated, [(first.covers, first.result_name, 5)], mode=mode
        )
        covered = first.covers | frozenset().union(
            *(fragment.covers for fragment in new_result.plan.fragments)
        )
        assert covered == frozenset(reformulated.query.relations)

    def test_reoptimize_requires_materializations(self, setup):
        _, optimizer, reformulated = setup
        result = optimizer.optimize(reformulated)
        with pytest.raises(Exception):
            optimizer.reoptimize(result, reformulated, [])
