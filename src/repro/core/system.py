"""The Tukwila system facade: the library's primary entry point.

:class:`Tukwila` ties the components together the way Figure 2 of the paper
does: users register data sources (wrappers + catalog metadata), define or
derive a mediated schema, and pose conjunctive queries; the system reformulates,
optimizes with partial plans and rules as appropriate, and executes with the
adaptive engine, interleaving planning and execution.
"""

from __future__ import annotations

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.source_desc import SourceDescription
from repro.catalog.statistics import SourceStatistics
from repro.engine.context import EngineConfig, ExecutionContext
from repro.core.interleaving import InterleavedExecutionDriver, QueryResult
from repro.errors import QueryError
from repro.network.cache import SourceCache
from repro.network.source import DataSource
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerConfig,
    PlanningStrategy,
    ReoptimizationMode,
)
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.mediated import MediatedSchema
from repro.query.parser import parse_query
from repro.query.reformulation import ReformulatedQuery, Reformulator


class Tukwila:
    """An adaptive query execution system for data integration.

    Parameters
    ----------
    mediated_schema:
        The virtual schema users query against.  When omitted, an empty
        schema is created and relations are added implicitly as sources are
        registered (each source's relation name becomes a mediated relation).
    optimizer_config / engine_config:
        Tunables for planning and execution.
    reoptimization_mode:
        How re-optimization reuses the saved search space.
    """

    def __init__(
        self,
        mediated_schema: MediatedSchema | None = None,
        optimizer_config: OptimizerConfig | None = None,
        engine_config: EngineConfig | None = None,
        reoptimization_mode: ReoptimizationMode = ReoptimizationMode.SAVED_STATE,
    ) -> None:
        self.mediated_schema = mediated_schema or MediatedSchema()
        self.catalog = DataSourceCatalog()
        self.optimizer = Optimizer(self.catalog, optimizer_config)
        self.reformulator = Reformulator(self.catalog)
        self.engine_config = engine_config or EngineConfig()
        self.reoptimization_mode = reoptimization_mode
        # One cache shared by every query this system executes (when enabled).
        self.source_cache = SourceCache() if self.engine_config.enable_source_caching else None

    # -- registration ----------------------------------------------------------------------

    def register_source(
        self,
        source: DataSource,
        description: SourceDescription | None = None,
        statistics: SourceStatistics | None = None,
        publish_statistics: bool = True,
    ) -> None:
        """Register a data source (and implicitly extend the mediated schema)."""
        self.catalog.register_source(
            source,
            description=description,
            statistics=statistics,
            publish_statistics=publish_statistics,
        )
        mediated_relation = (
            description.mediated_relation if description is not None else source.relation.name
        )
        if mediated_relation not in self.mediated_schema:
            self.mediated_schema.add_relation(mediated_relation, source.exported_schema)

    def declare_mirrors(self, source_a: str, source_b: str) -> None:
        """Record that two registered sources mirror each other."""
        self.catalog.overlap.set_mirrors(source_a, source_b)

    def set_overlap(self, container: str, contained: str, probability: float) -> None:
        """Record partial overlap between two registered sources."""
        self.catalog.overlap.set_overlap(container, contained, probability)

    # -- query processing --------------------------------------------------------------------------

    def reformulate(self, query: ConjunctiveQuery | str, name: str = "query") -> ReformulatedQuery:
        """Reformulate a mediated query (SQL text or a ConjunctiveQuery) over the sources."""
        if isinstance(query, str):
            query = parse_query(query, name=name)
        self.mediated_schema.validate_query_relations(list(query.relations))
        if not query.join_connected():
            raise QueryError(
                f"query {query.name!r} has a disconnected join graph; "
                "add join predicates connecting every relation"
            )
        return self.reformulator.reformulate(query)

    def plan(
        self,
        query: ConjunctiveQuery | str,
        strategy: PlanningStrategy | None = None,
        name: str = "query",
    ) -> OptimizationResult:
        """Optimize a query without executing it (useful for inspection)."""
        reformulated = self.reformulate(query, name=name)
        chosen = strategy or self._default_strategy(reformulated)
        return self.optimizer.optimize(reformulated, strategy=chosen)

    def execute(
        self,
        query: ConjunctiveQuery | str,
        strategy: PlanningStrategy | None = None,
        name: str = "query",
        context: ExecutionContext | None = None,
    ) -> QueryResult:
        """Reformulate, optimize, and execute a query with interleaved planning."""
        reformulated = self.reformulate(query, name=name)
        chosen = strategy or self._default_strategy(reformulated)
        driver = InterleavedExecutionDriver(
            self.catalog,
            self.optimizer,
            engine_config=self.engine_config,
            reoptimization_mode=self.reoptimization_mode,
        )
        if context is None:
            context = self.new_context(query_name=reformulated.query.name)
        return driver.run(reformulated, strategy=chosen, context=context)

    def _default_strategy(self, reformulated: ReformulatedQuery) -> PlanningStrategy:
        """Partial planning when statistics are missing, otherwise materialize+replan."""
        if self.optimizer.should_plan_partially(reformulated):
            return PlanningStrategy.PARTIAL
        return PlanningStrategy.MATERIALIZE_REPLAN

    def new_context(self, query_name: str = "query") -> ExecutionContext:
        """A fresh execution context bound to this system's catalog and cache."""
        return ExecutionContext(
            self.catalog,
            config=self.engine_config,
            query_name=query_name,
            source_cache=self.source_cache,
        )
