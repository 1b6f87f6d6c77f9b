"""The five workloads.

Each workload generates its TPC-D tables from the seed (the engine only ever
sees the generated relations), publishes them through simulated sources, and
exposes :meth:`Workload.run_op` — one closed-loop operation, single-threaded,
run back to back by :mod:`perflab.runner`.  Why each is here, and which layer
it stresses, is recorded in :data:`perflab.registry.WORKLOADS`.

Default scales are the issue's nominal scales shrunk until 40 ops fit the
driver's ten-second measuring window on the 2-core box (the issue's rule:
shrink the scale, never the op count).  ``scale_factor`` multiplies them for
local use; only the default configuration is ever recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.catalog.catalog import DataSourceCatalog
from repro.core.interleaving import QueryResult
from repro.core.system import Tukwila
from repro.datagen.tpcd import TPCDDatabase, TPCDGenerator
from repro.datagen.workload import figure5_queries
from repro.engine import builder
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE
from repro.engine.operators.materialize import Materialize
from repro.network.profiles import NetworkProfile, lan, wide_area
from repro.network.source import DataSource, SourceStats
from repro.optimizer.memory_alloc import MIN_JOIN_ALLOTMENT_BYTES
from repro.optimizer.optimizer import OptimizerConfig, PlanningStrategy
from repro.plan.physical import JoinImplementation, OperatorSpec, OverflowMethod, join, wrapper_scan
from repro.server import QueryServer
from repro.storage.memory import MB
from repro.storage.relation import Relation

from perflab.reference import JoinQuery

#: Warm-up ops run by every set-up (they fill each source's
#: ``encoded_column_cache`` and the interpreter's inline caches).
WARMUP_OPS = 3

#: Jittered scales snap to this step (an even ``part`` count), so the
#: generator's integer rows-per-part and rows-per-order ratios stay exact.
SCALE_STEP_MB = 0.01


@dataclass
class Outcome:
    """One query of one op: what it answered and whether the engine said OK."""

    query: str
    cardinality: int
    relation: Relation | None
    ok: bool
    detail: str = ""
    ttft_ms: float | None = None
    completion_ms: float = 0.0


@dataclass
class OpResult:
    """Everything one op produced that the runner checks or attributes."""

    outcomes: list[Outcome]
    virtual_ms: float
    #: Every standalone execution context the op ran (public stats live here).
    contexts: list[ExecutionContext] = field(default_factory=list)
    server: QueryServer | None = None
    query_results: list[QueryResult] = field(default_factory=list)
    #: The sources' public counters over this op.
    source_connections: int = 0
    source_queued_ms: float = 0.0

    @property
    def rows(self) -> int:
        return sum(outcome.cardinality for outcome in self.outcomes)

    @property
    def virtual_ttft_ms(self) -> float:
        """Mean admission -> first output tuple over the op's queries."""
        values = [o.ttft_ms for o in self.outcomes if o.ttft_ms is not None]
        return sum(values) / len(values) if values else 0.0


def drive_tree(
    spec: OperatorSpec, catalog: DataSourceCatalog, config: EngineConfig, name: str, query: str
) -> tuple[Outcome, ExecutionContext]:
    """perflab's own drive loop: build, materialize, ramp batches 1 -> 256.

    Time to first tuple is the first batch's first arrival stamp.  The bench
    harness's ``run_operator_tree`` is deliberately not used: its per-tuple
    ``TupleTimeline.record`` is harness cost, not engine cost.
    """
    context = ExecutionContext(catalog, config=config, query_name=name)
    child = builder.build_operator(spec, context)
    root = Materialize(f"{name}-mat", context, child, result_name=name)
    root.open()
    produced = 0
    first_arrival: float | None = None
    size = 1
    try:
        while True:
            batch = root.next_batch(size)
            if not batch:
                break
            if first_arrival is None:
                first_arrival = batch.arrivals[0]
            produced += len(batch)
            size = min(size * 4, DEFAULT_BATCH_SIZE)
    finally:
        root.close()
    outcome = Outcome(
        query=query,
        cardinality=produced,
        relation=context.local_store.get(name),
        ok=True,
        ttft_ms=first_arrival,
        completion_ms=context.clock.now,
    )
    return outcome, context


class Workload:
    """Base: data generation, source registration, source-counter deltas."""

    name = ""
    tables: tuple[str, ...] = ()
    #: Data scale in TPC-D megabytes at ``scale_factor`` 1.0.
    scale_mb = 1.0
    #: Share by which the seed also moves the data scale, either way.  Set
    #: where the generated join inputs would otherwise not depend on the seed
    #: at all: TPC-D's part, partsupp and supplier keys are seed-independent,
    #: so every seed would present byte-identical work (and report
    #: bit-identical virtual times) and ten seeds would vary nothing.
    scale_jitter = 0.0
    profile: NetworkProfile = lan()

    def __init__(self, seed: int, scale_factor: float = 1.0) -> None:
        self.seed = seed
        self.scale = self.scale_mb * scale_factor
        if self.scale_jitter:
            moved = self.scale * (1.0 + random.Random(seed).uniform(-1.0, 1.0) * self.scale_jitter)
            self.scale = max(SCALE_STEP_MB, round(moved / SCALE_STEP_MB) * SCALE_STEP_MB)
        self.database = self.generate()
        self.sources = {
            table: DataSource(table, self.database[table], self.profile) for table in self.tables
        }
        self.catalog = DataSourceCatalog()
        for source in self.sources.values():
            self.catalog.register_source(source)
        self.prepare()

    def generate(self) -> TPCDDatabase:
        return TPCDGenerator(scale_mb=self.scale, seed=self.seed).generate(list(self.tables))

    def prepare(self) -> None:
        """Workload-specific set-up after the sources exist."""

    def reference_queries(self) -> list[JoinQuery]:
        raise NotImplementedError

    def run_op(self) -> OpResult:
        # The sources' public counters are cumulative; a fresh stats object per
        # op makes the per-op counts exact (a difference of growing float
        # totals would not repeat bit-identically).
        for source in self.sources.values():
            source.stats = SourceStats()
        result = self._op()
        result.source_connections = sum(s.stats.connections_opened for s in self.sources.values())
        result.source_queued_ms = sum(s.stats.queued_ms for s in self.sources.values())
        return result

    def _op(self) -> OpResult:
        raise NotImplementedError

    def _run_trees(self, plans: list[tuple[str, OperatorSpec]], config: EngineConfig) -> OpResult:
        """Drive ``plans`` back to back; virtual time is the sum of completions."""
        outcomes, contexts = [], []
        for label, spec in plans:
            outcome, context = drive_tree(
                spec, self.catalog, config, f"{self.name}_{label}", self.reference_queries()[0].name
            )
            outcomes.append(outcome)
            contexts.append(context)
        return OpResult(
            outcomes=outcomes,
            virtual_ms=sum(o.completion_ms for o in outcomes),
            contexts=contexts,
        )


# -- Fig. 3a: (lineitem ⋈ supplier) ⋈ orders on the LAN ---------------------------------

FIG3A = JoinQuery(
    "fig3a",
    ("lineitem", "supplier", "orders"),
    (
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ),
)


def fig3a_plan(first_join_build: str, implementation: JoinImplementation) -> OperatorSpec:
    """``(lineitem ⋈ supplier) ⋈ orders``; ``first_join_build`` names the
    relation on the build (right) side of the first join."""
    lineitem, supplier = wrapper_scan("lineitem"), wrapper_scan("supplier")
    if first_join_build == "supplier":
        first = join(
            lineitem, supplier, ["lineitem.l_suppkey"], ["supplier.s_suppkey"],
            implementation=implementation,
        )
    else:
        first = join(
            supplier, lineitem, ["supplier.s_suppkey"], ["lineitem.l_suppkey"],
            implementation=implementation,
        )
    return join(
        first, wrapper_scan("orders"), ["lineitem.l_orderkey"], ["orders.o_orderkey"],
        implementation=implementation,
    )


class Fig3aDpj(Workload):
    name = "fig3a_dpj"
    tables = ("lineitem", "orders", "supplier")
    scale_mb = 2.0

    def reference_queries(self) -> list[JoinQuery]:
        return [FIG3A]

    def plans(self) -> list[tuple[str, OperatorSpec]]:
        return [("dpj", fig3a_plan("supplier", JoinImplementation.DOUBLE_PIPELINED))]

    def _op(self) -> OpResult:
        return self._run_trees(self.plans(), EngineConfig())


class Fig3aHybrid(Fig3aDpj):
    name = "fig3a_hybrid"

    def plans(self) -> list[tuple[str, OperatorSpec]]:
        return [
            ("build_supplier", fig3a_plan("supplier", JoinImplementation.HYBRID_HASH)),
            ("build_lineitem", fig3a_plan("lineitem", JoinImplementation.HYBRID_HASH)),
        ]


# -- §4.2.3: part ⋈ partsupp at a third of the encoded join state ------------------------

PART_PARTSUPP = JoinQuery(
    "part_partsupp", ("part", "partsupp"), (("part", "p_partkey", "partsupp", "ps_partkey"),)
)


class OverflowSpill(Workload):
    name = "overflow_spill"
    tables = ("part", "partsupp")
    scale_mb = 8.0
    scale_jitter = 0.01
    #: Memory allotment as a share of the *encoded* join state.
    memory_fraction = 1 / 3
    #: Spill I/O priced at spinning-disk rates (the Figure-4 configuration).
    config = EngineConfig(disk_page_read_ms=1.0, disk_page_write_ms=1.2)

    def prepare(self) -> None:
        state = sum(
            source.cardinality * source.exported_schema.encoded_row_size
            for source in self.sources.values()
        )
        self.memory_bytes = int(state * self.memory_fraction)

    def reference_queries(self) -> list[JoinQuery]:
        return [PART_PARTSUPP]

    def _plan(self, implementation: JoinImplementation, method: OverflowMethod) -> OperatorSpec:
        return join(
            wrapper_scan("part"), wrapper_scan("partsupp"),
            ["part.p_partkey"], ["partsupp.ps_partkey"],
            implementation=implementation,
            overflow_method=method,
            memory_limit_bytes=self.memory_bytes,
        )

    def _op(self) -> OpResult:
        dpj, hybrid = JoinImplementation.DOUBLE_PIPELINED, JoinImplementation.HYBRID_HASH
        plans = [
            ("dpj_left", self._plan(dpj, OverflowMethod.LEFT_FLUSH)),
            ("dpj_symmetric", self._plan(dpj, OverflowMethod.SYMMETRIC_FLUSH)),
            ("hybrid", self._plan(hybrid, OverflowMethod.LEFT_FLUSH)),
        ]
        return self._run_trees(plans, self.config)


# -- the eight-session server mix ----------------------------------------------------------

PARTSUPP_SUPPLIER = JoinQuery(
    "supplier_partsupp",
    ("supplier", "partsupp"),
    (("supplier", "s_suppkey", "partsupp", "ps_suppkey"),),
)


class ServerMix8(Workload):
    name = "server_mix8"
    tables = ("part", "partsupp", "supplier")
    scale_mb = 2.4
    scale_jitter = 0.01
    profile = wide_area()
    sessions = 8
    #: Simultaneous streams one source serves; further connections queue.
    source_max_concurrent = 2
    #: Broker capacity as a multiple of one session's memory request.
    capacity_sessions = 2.5
    #: Sessions admitted at t=0; the rest are staggered.
    head_sessions = 3
    #: Stagger as a share of the shortest isolated session run.
    stagger_fraction = 0.4
    engine_config = EngineConfig()

    def prepare(self) -> None:
        for source in self.sources.values():
            source.max_concurrent = self.source_max_concurrent
        state = sum(
            source.cardinality * source.exported_schema.encoded_row_size
            for source in self.sources.values()
        )
        self.memory_bytes = max(32 * 1024, int(state * 0.9))
        isolated = []
        for index in (0, 1):
            self._reset_sources()
            outcome, _ = drive_tree(
                self.session_spec(index), self.catalog, EngineConfig(), f"calibrate{index}", ""
            )
            isolated.append(outcome.completion_ms)
        self.stagger_ms = min(isolated) * self.stagger_fraction

    def _reset_sources(self) -> None:
        for source in self.sources.values():
            source.reset_concurrency()

    def reference_queries(self) -> list[JoinQuery]:
        return [PART_PARTSUPP, PARTSUPP_SUPPLIER]

    def session_spec(self, index: int) -> OperatorSpec:
        """Even sessions join part⋈partsupp, odd ones supplier⋈partsupp."""
        prefix = f"s{index}"
        if index % 2 == 0:
            left, lkey, rkey = "part", "part.p_partkey", "partsupp.ps_partkey"
        else:
            left, lkey, rkey = "supplier", "supplier.s_suppkey", "partsupp.ps_suppkey"
        return join(
            wrapper_scan(left, operator_id=f"{prefix}_scan_{left}"),
            wrapper_scan("partsupp", operator_id=f"{prefix}_scan_partsupp"),
            [lkey], [rkey],
            operator_id=f"{prefix}_join",
            memory_limit_bytes=self.memory_bytes,
        )

    def arrival_ms(self, index: int) -> float:
        if index < self.head_sessions:
            return 0.0
        return (index - self.head_sessions + 1) * self.stagger_ms

    def _op(self) -> OpResult:
        self._reset_sources()
        server = QueryServer(
            self.catalog,
            engine_config=self.engine_config,
            memory_capacity_bytes=int(self.memory_bytes * self.capacity_sessions),
        )
        server.broker.floor_bytes = max(16 * 1024, self.memory_bytes // 8)
        sessions = [
            server.submit(self.session_spec(i), f"s{i}", arrival_ms=self.arrival_ms(i))
            for i in range(self.sessions)
        ]
        stats = server.run()
        outcomes = []
        for index, session in enumerate(sessions):
            first = session.timeline.time_to_first
            outcomes.append(
                Outcome(
                    query=(PART_PARTSUPP if index % 2 == 0 else PARTSUPP_SUPPLIER).name,
                    cardinality=session.result_cardinality,
                    relation=session.result,
                    ok=session.status.value == "completed",
                    detail=session.error or "",
                    ttft_ms=None if first is None else first - session.summary.submitted_at_ms,
                    completion_ms=session.summary.completed_at_ms or 0.0,
                )
            )
        return OpResult(outcomes=outcomes, virtual_ms=stats.makespan_ms, server=server)


class ServerMix8Speculative(ServerMix8):
    """The same mix with the speculative source layer on (a traced-pass
    side experiment feeding ``server.prefetch.*``, never an end-to-end run)."""

    name = "server_mix8_speculative"
    capacity_sessions = 3.5

    def prepare(self) -> None:
        super().prepare()
        self.engine_config = EngineConfig(
            speculative_sources=True, prefetch_budget_bytes=self.memory_bytes
        )


# -- Fig. 5: seven four-table joins through the front door --------------------------------


class Fig5Replan(Workload):
    name = "fig5_replan"
    tables = ("region", "nation", "supplier", "customer", "part", "partsupp", "orders")
    scale_mb = 0.7
    scale_jitter = 0.01
    #: Spill I/O priced at spinning-disk rates, as in the Figure-5 bench.
    engine_config = EngineConfig(disk_page_read_ms=2.0, disk_page_write_ms=2.5)
    #: Tables whose rows carry a randomly drawn join key, and the fixed seed
    #: they are generated from.  At this scale there are seven suppliers;
    #: where a seed drops them among 25 nations, and which customers its
    #: orders pick, swings the customer-supplier same-nation fan-out of Q5/Q6
    #: (two thirds of the op's rows) by +/-20 % — a different workload per
    #: seed, not noise around one.  The seed draws part and partsupp.
    random_keyed = ("region", "nation", "supplier", "customer", "orders")
    random_keyed_seed = 1999

    def generate(self) -> TPCDDatabase:
        database = TPCDGenerator(scale_mb=self.scale, seed=self.random_keyed_seed).generate(
            list(self.random_keyed)
        )
        seeded = TPCDGenerator(scale_mb=self.scale, seed=self.seed).generate(
            [table for table in self.tables if table not in self.random_keyed]
        )
        database.tables.update(seeded.tables)
        return database

    def prepare(self) -> None:
        self.queries = figure5_queries()
        #: The front door takes SQL text, so the parser runs on every op.
        self.sql = [(query.name, str(query)) for query in self.queries]
        #: The issue's regime: a pool as large as the data set (1.5 MB at
        #: 1.5 MB), never below the allocator's floor for three joins.
        self.pool_bytes = max(int(self.scale * MB), 3 * MIN_JOIN_ALLOTMENT_BYTES)

    def reference_queries(self) -> list[JoinQuery]:
        return [
            JoinQuery(
                query.name,
                tuple(query.relations),
                tuple(
                    (p.left_table, p.left_attr, p.right_table, p.right_attr)
                    for p in query.join_predicates
                ),
            )
            for query in self.queries
        ]

    def _op(self) -> OpResult:
        system = Tukwila(
            optimizer_config=OptimizerConfig(memory_pool_bytes=self.pool_bytes),
            engine_config=self.engine_config,
        )
        for source in self.sources.values():
            system.register_source(source)
        outcomes, contexts, results = [], [], []
        for name, sql in self.sql:
            context = system.new_context(query_name=name)
            result = system.execute(
                sql, strategy=PlanningStrategy.MATERIALIZE_REPLAN, name=name, context=context
            )
            outcomes.append(
                Outcome(
                    query=name,
                    cardinality=result.cardinality,
                    relation=result.answer,
                    ok=result.succeeded,
                    detail=result.error,
                    ttft_ms=result.time_to_first_tuple_ms,
                    completion_ms=result.total_time_ms,
                )
            )
            contexts.append(context)
            results.append(result)
        return OpResult(
            outcomes=outcomes,
            virtual_ms=sum(o.completion_ms for o in outcomes),
            contexts=contexts,
            query_results=results,
        )


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig3aDpj, Fig3aHybrid, OverflowSpill, ServerMix8, Fig5Replan)
}
