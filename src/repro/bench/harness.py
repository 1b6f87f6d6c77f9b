"""The figure harness: experiment set-ups and tuples-vs-time capture.

Each experiment in :mod:`repro.bench.figures` reproduces one table or
figure from the paper.  This module holds the pieces they, the examples
and the tests share: building a simulated "TPC-D in DB2 behind wrappers"
deployment at a given scale, and running a join with a chosen physical plan
and network profile while capturing its tuples-vs-time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import DataSourceCatalog
from repro.datagen.tpcd import TPCDDatabase, TPCDGenerator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.engine.stats import TupleTimeline
from repro.errors import ExecutionError
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import OperatorSpec
from repro.storage.relation import Relation


@dataclass
class Deployment:
    """A simulated deployment: generated data published through data sources."""

    database: TPCDDatabase
    catalog: DataSourceCatalog
    sources: dict[str, DataSource] = field(default_factory=dict)

    def set_profile(self, table: str, profile: NetworkProfile) -> None:
        """Change the network profile of one table's source."""
        self.sources[table].set_profile(profile)

    def set_all_profiles(self, profile: NetworkProfile) -> None:
        for source in self.sources.values():
            source.set_profile(profile)


def build_deployment(
    scale_mb: float,
    tables: list[str],
    profile: NetworkProfile | None = None,
    seed: int = 42,
    publish_statistics: bool = True,
    fk_skew: float = 0.0,
) -> Deployment:
    """Generate TPC-D tables at ``scale_mb`` and expose each through a source.

    Source names equal table names, so workload queries (which reference
    mediated relations named after the TPC-D tables) resolve directly.
    """
    database = TPCDGenerator(scale_mb=scale_mb, seed=seed, fk_skew=fk_skew).generate(tables)
    catalog = DataSourceCatalog()
    profile = profile or lan()
    sources: dict[str, DataSource] = {}
    for table in tables:
        source = DataSource(table, database[table], profile)
        catalog.register_source(source, publish_statistics=publish_statistics)
        sources[table] = source
    return Deployment(database=database, catalog=catalog, sources=sources)


@dataclass
class RunResult:
    """Output of executing one operator tree in isolation."""

    cardinality: int
    completion_time_ms: float
    time_to_first_tuple_ms: float | None
    timeline: TupleTimeline
    relation: Relation
    context: ExecutionContext


def run_operator_tree(
    spec: OperatorSpec,
    catalog: DataSourceCatalog,
    result_name: str = "bench_result",
    engine_config: EngineConfig | None = None,
) -> RunResult:
    """Execute one physical operator tree to completion against ``catalog``.

    This bypasses the optimizer so that the figures can compare hand-chosen
    plans (exactly what the paper does for the join experiments, which used
    hand-coded query plans for greater control).  The tree runs as a
    one-fragment plan through :meth:`QueryExecutor.execute
    <repro.engine.executor.QueryExecutor.execute>`; a run that does not
    complete raises :class:`~repro.errors.ExecutionError`.
    """
    context = ExecutionContext(catalog, config=engine_config, query_name=result_name)
    plan = QueryPlan(result_name, [Fragment(result_name, spec, result_name)])
    outcome = QueryExecutor(context).execute(plan)
    if not outcome.completed:
        raise ExecutionError(outcome.error)
    relation = outcome.answer
    # The stored result keeps every row's virtual arrival stamp, so the
    # tuples-vs-time series has tuple-level resolution (the figures' curves
    # — e.g. the overflow stall shapes — survive batch-at-a-time driving).
    timeline = TupleTimeline()
    last_time = 0.0
    for produced, arrival in enumerate(relation.arrivals(), 1):
        if arrival > last_time:
            last_time = arrival
        timeline.record(last_time, produced)
    return RunResult(
        cardinality=relation.cardinality,
        completion_time_ms=context.clock.now,
        time_to_first_tuple_ms=timeline.time_to_first,
        timeline=timeline,
        relation=relation,
        context=context,
    )
