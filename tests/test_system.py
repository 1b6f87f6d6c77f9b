"""End-to-end tests for the Tukwila facade and interleaved execution driver."""

import pytest

from repro.bench.harness import build_deployment, run_operator_tree
from repro.core.system import Tukwila
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionStatus
from repro.engine.operators.joins.dependent import DependentJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import QueryError
from repro.network.profiles import dead, lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.catalog.source_desc import SourceDescription
from repro.optimizer.optimizer import PlanningStrategy, ReoptimizationMode
from repro.plan.physical import JoinImplementation, join, wrapper_scan
from repro.storage.tuples import counting_row_constructions

from helpers import attribute_multiset, join_relations, qualified_relation, reference_join


@pytest.fixture
def two_table_system(orders_and_items):
    orders, items = orders_and_items
    system = Tukwila()
    system.register_source(DataSource("ord", orders, lan()))
    system.register_source(DataSource("item", items, lan()))
    return system


@pytest.fixture
def tpcd_system(tiny_tpcd):
    system = Tukwila()
    for table in ["region", "nation", "supplier", "customer", "orders"]:
        system.register_source(DataSource(table, tiny_tpcd[table], lan()))
    return system


JOIN_SQL = "select * from ord, item where ord.o_id = item.i_order"


class TestRegistration:
    def test_register_source_extends_mediated_schema(self, two_table_system):
        assert "ord" in two_table_system.mediated_schema
        assert "item" in two_table_system.mediated_schema

    def test_declare_mirrors_and_overlap(self, two_table_system, orders_and_items):
        orders, _ = orders_and_items
        mirror = DataSource("ord2", orders, wide_area())
        two_table_system.register_source(
            mirror, SourceDescription("ord2", "ord")
        )
        two_table_system.declare_mirrors("ord", "ord2")
        overlap = two_table_system.catalog.overlap
        assert overlap.overlap("ord", "ord2") == overlap.overlap("ord2", "ord") == 1.0
        two_table_system.set_overlap("ord", "ord2", 0.9)
        assert two_table_system.catalog.overlap.overlap("ord", "ord2") == 0.9


class TestQueryExecution:
    def test_sql_string_query(self, two_table_system, orders_and_items):
        orders, items = orders_and_items
        result = two_table_system.execute(JOIN_SQL, name="j1")
        assert result.succeeded
        expected = reference_join(orders, items, "o_id", "i_order")
        assert attribute_multiset(result.answer) == attribute_multiset(expected)
        assert result.total_time_ms > 0
        assert result.time_to_first_tuple_ms is not None

    def test_unknown_relation_rejected(self, two_table_system):
        with pytest.raises(QueryError):
            two_table_system.execute("select * from ord, ghost where ord.o_id = ghost.x")

    def test_disconnected_query_rejected(self, two_table_system):
        with pytest.raises(QueryError):
            two_table_system.execute("select * from ord, item")

    def test_plan_without_execution(self, two_table_system):
        result = two_table_system.plan(JOIN_SQL, name="planned")
        assert result.plan.fragments
        assert result.state.best_plan().subset == frozenset({"ord", "item"})

    def test_single_relation_query(self, two_table_system, orders_and_items):
        orders, _ = orders_and_items
        result = two_table_system.execute("select * from ord", name="scan_only")
        assert result.succeeded
        assert result.cardinality == orders.cardinality

    @pytest.mark.parametrize(
        "strategy",
        [
            PlanningStrategy.PIPELINE,
            PlanningStrategy.MATERIALIZE,
            PlanningStrategy.MATERIALIZE_REPLAN,
            PlanningStrategy.PARTIAL,
        ],
    )
    def test_all_strategies_agree_on_tpcd(self, tpcd_system, tiny_tpcd, strategy):
        sql = (
            "select * from nation, region, supplier "
            "where nation.n_regionkey = region.r_regionkey "
            "and supplier.s_nationkey = nation.n_nationkey"
        )
        result = tpcd_system.execute(sql, strategy=strategy, name=f"q_{strategy.value}")
        assert result.succeeded
        expected = join_relations(
            join_relations(
                qualified_relation(tiny_tpcd["nation"]),
                qualified_relation(tiny_tpcd["region"]),
                ["n_regionkey"],
                ["r_regionkey"],
            ),
            qualified_relation(tiny_tpcd["supplier"]),
            ["n_nationkey"],
            ["s_nationkey"],
        )
        assert result.cardinality == expected.cardinality

    def test_interleaving_replans_with_bad_estimates(self, tpcd_system):
        sql = (
            "select * from nation, supplier, customer "
            "where supplier.s_nationkey = nation.n_nationkey "
            "and customer.c_nationkey = nation.n_nationkey"
        )
        result = tpcd_system.execute(
            sql, strategy=PlanningStrategy.MATERIALIZE_REPLAN, name="replanner"
        )
        assert result.succeeded
        # Default join selectivities are badly wrong, so at least one replan happens.
        assert result.reoptimizations >= 1
        assert len(result.plans) == result.reoptimizations + 1

    def test_partial_strategy_completes_via_interleaving(self, tpcd_system):
        sql = (
            "select * from nation, region, supplier, customer "
            "where nation.n_regionkey = region.r_regionkey "
            "and supplier.s_nationkey = nation.n_nationkey "
            "and customer.c_nationkey = nation.n_nationkey"
        )
        result = tpcd_system.execute(sql, strategy=PlanningStrategy.PARTIAL, name="partial_q")
        assert result.succeeded
        assert result.reoptimizations >= 1

    def test_default_strategy_partial_when_no_statistics(self, orders_and_items):
        orders, items = orders_and_items
        system = Tukwila()
        system.register_source(DataSource("ord", orders, lan()), publish_statistics=False)
        system.register_source(DataSource("item", items, lan()), publish_statistics=False)
        reformulated = system.reformulate(JOIN_SQL, name="nostats")
        assert system._default_strategy(reformulated) == PlanningStrategy.PARTIAL

    @pytest.mark.parametrize(
        "mode",
        [
            ReoptimizationMode.SAVED_STATE,
            ReoptimizationMode.SAVED_STATE_NO_POINTERS,
            ReoptimizationMode.SCRATCH,
        ],
    )
    def test_reoptimization_modes_agree(self, tiny_tpcd, mode):
        system = Tukwila(reoptimization_mode=mode)
        for table in ["nation", "supplier", "customer"]:
            system.register_source(DataSource(table, tiny_tpcd[table], lan()))
        sql = (
            "select * from nation, supplier, customer "
            "where supplier.s_nationkey = nation.n_nationkey "
            "and customer.c_nationkey = nation.n_nationkey"
        )
        result = system.execute(sql, strategy=PlanningStrategy.MATERIALIZE_REPLAN, name="modes")
        assert result.succeeded
        expected = join_relations(
            join_relations(
                qualified_relation(tiny_tpcd["nation"]),
                qualified_relation(tiny_tpcd["supplier"]),
                ["n_nationkey"],
                ["s_nationkey"],
            ),
            qualified_relation(tiny_tpcd["customer"]),
            ["n_nationkey"],
            ["c_nationkey"],
        )
        assert result.cardinality == expected.cardinality


class TestMirrorsAndFailures:
    def test_mirror_used_when_primary_dead(self, orders_and_items):
        orders, items = orders_and_items
        system = Tukwila()
        primary = DataSource("ord", orders, dead())
        system.register_source(primary)
        system.register_source(
            make_mirror(primary, "ord-mirror", lan()), SourceDescription("ord-mirror", "ord")
        )
        system.register_source(DataSource("item", items, lan()))
        system.declare_mirrors("ord", "ord-mirror")
        system.engine_config.default_timeout_ms = 500.0
        result = system.execute(JOIN_SQL, name="mirror_q")
        assert result.succeeded
        expected = reference_join(orders, items, "o_id", "i_order")
        assert attribute_multiset(result.answer) == attribute_multiset(expected)

    def test_unreachable_single_source_fails_cleanly(self, orders_and_items):
        orders, items = orders_and_items
        system = Tukwila()
        system.register_source(DataSource("ord", orders, dead()))
        system.register_source(DataSource("item", items, lan()))
        system.engine_config.default_timeout_ms = 200.0
        result = system.execute(JOIN_SQL, name="dead_q")
        assert result.status in (ExecutionStatus.FAILED, ExecutionStatus.RESCHEDULE_REQUESTED)
        assert not result.succeeded


def drained(operator) -> int:
    """Rows ``operator`` produces, pulled in batches (no row boxed here)."""
    operator.open()
    produced = 0
    while batch := operator.next_batch(256):
        produced += len(batch)
    operator.close()
    return produced


class TestStoredRelationsAreReadByPosition:
    def test_set_up_and_figure_ops_box_no_row(self):
        """Generation stores columns, a source exports them as they are, and
        the Fig. 3a plans and a dependent join over a cached source read them
        by position: from data generation to the last output, no Row."""
        tables = ["lineitem", "orders", "supplier"]
        with counting_row_constructions() as counter:
            deployment = build_deployment(0.3, tables, seed=42)
            for table in tables:
                deployment.sources[table].encoded_column_cache()
            lineitem = deployment.database["lineitem"].cardinality
            for implementation in (
                JoinImplementation.DOUBLE_PIPELINED,
                JoinImplementation.HYBRID_HASH,
            ):
                spec = join(
                    join(
                        wrapper_scan("lineitem"), wrapper_scan("supplier"),
                        ["lineitem.l_suppkey"], ["supplier.s_suppkey"],
                        implementation=implementation,
                    ),
                    wrapper_scan("orders"), ["lineitem.l_orderkey"], ["orders.o_orderkey"],
                    implementation=implementation,
                )
                name = f"fig3a_{implementation.value}"
                assert run_operator_tree(spec, deployment.catalog, name).cardinality == lineitem
            context = ExecutionContext(
                deployment.catalog, config=EngineConfig(enable_source_caching=True)
            )
            assert drained(WrapperScan("fill", context, "orders")) > 0
            probe = DependentJoin(
                "dj", context, WrapperScan("scan_l", context, "lineitem"), "orders",
                ["lineitem.l_orderkey"], ["orders.o_orderkey"],
            )
            assert drained(probe) == lineitem
            assert probe._cached_extent
            boxed = counter.count
        assert boxed == 0
