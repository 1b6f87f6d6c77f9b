"""Tests for the interleaved planning-and-execution driver."""

from repro.catalog.catalog import DataSourceCatalog
from repro.core.interleaving import InterleavedExecutionDriver
from repro.engine.context import EngineConfig
from repro.network.profiles import lan, slow_start
from repro.network.source import DataSource
from repro.optimizer.optimizer import Optimizer, OptimizerConfig, PlanningStrategy
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate
from repro.query.reformulation import Reformulator
from repro.storage.memory import MB

from helpers import join_relations, make_relation, qualified_relation


def star_catalog(sizes, profiles=None):
    """Relations all joinable on `k` through a hub relation."""
    profiles = profiles or {}
    catalog = DataSourceCatalog()
    for name, size in sizes:
        rel = make_relation(name, ["k:int", "v:int"], [(i % 25, i) for i in range(size)])
        catalog.register_source(DataSource(name, rel, profiles.get(name, lan())))
    return catalog


def chain_query(names, name="q"):
    predicates = [JoinPredicate(names[i], "k", names[i + 1], "k") for i in range(len(names) - 1)]
    return ConjunctiveQuery(name=name, relations=names, join_predicates=predicates)


SIZES = [("a", 60), ("b", 25), ("c", 40)]
NAMES = ["a", "b", "c"]


def make_driver(catalog, **kwargs):
    optimizer = Optimizer(catalog, OptimizerConfig(memory_pool_bytes=kwargs.pop("pool", None)))
    return InterleavedExecutionDriver(catalog, optimizer, **kwargs)


def reference_cardinality(catalog, names):
    result = qualified_relation(catalog.source(names[0]).relation)
    for prev, name in zip(names, names[1:]):
        right = qualified_relation(catalog.source(name).relation)
        result = join_relations(result, right, [f"{prev}.k"], [f"{name}.k"])
    return result.cardinality


class TestDriver:
    def test_completes_and_matches_reference(self):
        catalog = star_catalog(SIZES)
        driver = make_driver(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES))
        result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        assert result.succeeded
        assert result.cardinality == reference_cardinality(catalog, NAMES)

    def test_replans_when_estimates_wrong(self):
        catalog = star_catalog(SIZES)
        driver = make_driver(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES))
        result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        # Unknown selectivities + skewed key distribution force at least one replan.
        assert result.reoptimizations >= 1
        assert len(result.plans) >= 2

    def test_pipeline_strategy_never_replans(self):
        catalog = star_catalog(SIZES)
        driver = make_driver(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES, name="pipe"))
        result = driver.run(reformulated, strategy=PlanningStrategy.PIPELINE)
        assert result.succeeded
        assert result.reoptimizations == 0

    def test_partial_plans_iterate_to_completion(self):
        catalog = star_catalog(SIZES + [("d", 30)])
        driver = make_driver(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES + ["d"], name="part"))
        result = driver.run(reformulated, strategy=PlanningStrategy.PARTIAL)
        assert result.succeeded
        # The deferred remainder of the query required at least one re-invocation.
        assert result.reoptimizations >= 1
        assert result.cardinality == reference_cardinality(catalog, NAMES + ["d"])

    def test_rescheduling_on_slow_source_still_completes(self):
        profiles = {"c": slow_start(delay_ms=3_000.0)}
        catalog = star_catalog(SIZES, profiles)
        driver = make_driver(catalog, engine_config=EngineConfig(default_timeout_ms=1_000.0))
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES, name="slow"))
        result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE)
        assert result.succeeded
        # The timeout rule fired at least once and the plan was rescheduled.
        assert result.reschedules >= 1
        assert result.cardinality == reference_cardinality(catalog, NAMES)

    def test_total_time_accumulates_across_replans(self):
        catalog = star_catalog(SIZES)
        driver = make_driver(catalog)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES, name="time"))
        result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        assert result.total_time_ms >= max(
            frag.completed_at_ms for frag in result.stats.fragment_stats
        )

    def test_memory_pool_respected_across_replans(self):
        catalog = star_catalog(SIZES)
        driver = make_driver(catalog, pool=2 * MB)
        reformulated = Reformulator(catalog).reformulate(chain_query(NAMES, name="mem"))
        result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE_REPLAN)
        assert result.succeeded
