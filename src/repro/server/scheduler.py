"""The query server: cooperative event-driven scheduling of many sessions.

:class:`QueryServer` is the multi-query face of the engine.  It owns the
shared virtual timeline (:class:`~repro.server.clock.ServerClock`), the
server-wide :class:`~repro.server.broker.MemoryBroker`, and one cross-session
:class:`~repro.network.cache.SourceCache`; every submitted query becomes a
:class:`~repro.server.session.QuerySession` with its own clock view, a
broker-backed memory pool, and shared access to the source layer.

Scheduling is conservative discrete-event simulation: the scheduler always
steps the session with the **earliest next event** (its clock position, or
the source arrival it is blocked on).  Running the frontier session first
makes all shared state causal — a cache fill, a broker revocation, or a
connection-slot release observed by any session happened at a virtual time
no later than that session's own clock — and it is what overlaps one
session's network stalls with another session's CPU: while the frontier
session sleeps toward an arrival at ``T``, every other session whose next
event precedes ``T`` gets the timeline.
"""

from __future__ import annotations

from repro.analysis import plan_check
from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.stats import ServerStats, SourceLayerSummary
from repro.network.cache import SourceCache
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import OperatorSpec, OperatorType
from repro.server.broker import MemoryBroker
from repro.server.clock import ServerClock
from repro.server.session import QuerySession
from repro.storage.memory import MemoryPool


class QueryServer:
    """Runs N concurrent query sessions over one shared virtual timeline.

    Parameters
    ----------
    catalog:
        The shared data-source catalog (sources, statistics, overlap).
    engine_config:
        Default per-session engine tunables (a submit may override).
    memory_capacity_bytes:
        Server-wide memory capacity enforced by the broker; ``None``
        disables cross-query memory pressure.
    source_cache:
        The cross-session source cache; created automatically (completion-
        based admission) when omitted.
    """

    def __init__(
        self,
        catalog: DataSourceCatalog,
        engine_config: EngineConfig | None = None,
        memory_capacity_bytes: int | None = None,
        source_cache: SourceCache | None = None,
        name: str = "server",
    ) -> None:
        self.catalog = catalog
        self.engine_config = engine_config or EngineConfig()
        self.name = name
        self.clock = ServerClock()
        self.broker = MemoryBroker(memory_capacity_bytes, name=f"{name}-broker")
        self.source_cache = source_cache if source_cache is not None else SourceCache()
        self.sessions: dict[str, QuerySession] = {}
        self.scheduler_slices = 0
        self._counter = 0
        #: Speculative source layer: plan-aware prefetching under a revocable
        #: broker lease, enabled by config (off = PR 9 bit-identical).
        self.prefetcher = None
        config = self.engine_config
        if config.speculative_sources and config.prefetch_budget_bytes > 0:
            from repro.server.prefetch import PlanAwarePrefetcher

            self.prefetcher = PlanAwarePrefetcher(self, config.prefetch_budget_bytes)

    # -- admission ----------------------------------------------------------------------

    def _session_context(
        self,
        session_id: str,
        arrival_ms: float | None,
        engine_config: EngineConfig | None,
    ) -> ExecutionContext:
        clock = self.clock.session_clock(session_id, start_ms=arrival_ms)
        pool = MemoryPool(name=session_id, broker=self.broker)
        return ExecutionContext(
            self.catalog,
            clock=clock,
            memory_pool=pool,
            config=engine_config or self.engine_config,
            query_name=session_id,
            source_cache=self.source_cache,
            session_id=session_id,
        )

    def _next_session_id(self, name: str | None) -> str:
        self._counter += 1
        session_id = name or f"session-{self._counter}"
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already exists")
        return session_id

    def submit(
        self,
        tree: OperatorSpec,
        name: str | None = None,
        *,
        result_name: str | None = None,
        arrival_ms: float | None = None,
        engine_config: EngineConfig | None = None,
    ) -> QuerySession:
        """Admit a session over a hand-built operator tree.

        The tree runs as a one-fragment plan whose fragment id is the session
        id; its result is ``result_name`` (default ``"<session>_result"``), or
        the root's own name when the root is a materialize — an explicit
        ``result_name`` that disagrees with it raises
        :class:`~repro.errors.PlanError`.  ``arrival_ms`` staggers admission
        on the shared timeline (a user who shows up later); it is clamped to
        the server's causal frontier, so a session can never start in the
        past.  A malformed tree raises
        :class:`~repro.errors.PlanValidationError` before any session exists.
        """
        plan_check.check_tree(tree, self.catalog)
        session_id = self._next_session_id(name)
        if tree.operator_type == OperatorType.MATERIALIZE:
            result_name = result_name or tree.params.get("result_name")
        fragment = Fragment(session_id, tree, result_name or f"{session_id}_result")
        plan = QueryPlan(session_id, [fragment])
        return self._admit(session_id, plan, arrival_ms, engine_config)

    def submit_plan(
        self,
        plan: QueryPlan,
        name: str | None = None,
        *,
        arrival_ms: float | None = None,
        engine_config: EngineConfig | None = None,
    ) -> QuerySession:
        """Admit a session over a full query plan (fragments, rules, events).

        The plan's per-join memory allotments are *negotiated* against the
        broker before execution: under cross-query pressure the session's
        joins start with what the server can actually provide (free capacity
        plus everything revocable) rather than the optimizer's single-tenant
        assumption.  A malformed plan raises
        :class:`~repro.errors.PlanValidationError` before any session exists.
        """
        from repro.optimizer.memory_alloc import negotiate_plan_memory

        negotiate_plan_memory(plan, self.broker)
        # After negotiation every bounded allotment must sit at or above the
        # broker floor — a sub-floor allotment could never be granted.
        plan_check.check_plan(plan, self.catalog)
        session_id = self._next_session_id(name)
        return self._admit(session_id, plan, arrival_ms, engine_config)

    def _admit(
        self,
        session_id: str,
        plan: QueryPlan,
        arrival_ms: float | None,
        engine_config: EngineConfig | None,
    ) -> QuerySession:
        """Register a session running ``plan`` (both admission paths end here)."""
        context = self._session_context(session_id, arrival_ms, engine_config)
        session = QuerySession(session_id, context, self._counter, plan)
        self.sessions[session_id] = session
        if self.prefetcher is not None:
            self.prefetcher.observe_plan(plan)
        return session

    # -- the scheduler loop -------------------------------------------------------------

    def run(self) -> ServerStats:
        """Drive every unfinished session to completion; returns server stats.

        One scheduling decision per quantum: pick the unfinished session
        whose next event is earliest on the shared timeline (ties break by
        admission order) and advance it one step.  Deterministic by
        construction — virtual times and admission order fully decide the
        interleaving.
        """
        while True:
            runnable = [s for s in self.sessions.values() if not s.finished]
            if not runnable:
                break
            session = min(runnable, key=lambda s: (s.next_event_ms, s.admission_index))
            if self.prefetcher is not None:
                # Everything the prefetch stream delivers before the chosen
                # session's next observable moment is published first, so
                # the session steps into an already-causal source layer.
                self.prefetcher.advance(session.next_event_ms)
            session.step()
            self.scheduler_slices += 1
        if self.prefetcher is not None:
            self.prefetcher.quiesce()
        return self.stats()

    # -- reporting ----------------------------------------------------------------------

    def stats(self) -> ServerStats:
        """Server-level metrics: per-session summaries plus shared-layer counters."""
        stats = ServerStats(server_name=self.name)
        for session in sorted(self.sessions.values(), key=lambda s: s.admission_index):
            summary = session.summary
            if not session.finished:
                # Snapshot a live session's clock breakdown.
                clock = session.context.clock
                summary.wait_ms = clock.stats.wait_ms
                summary.cpu_ms = clock.stats.cpu_ms
                summary.io_ms = clock.stats.io_ms
            stats.sessions.append(summary)
        stats.scheduler_slices = self.scheduler_slices
        stats.revocations = self.broker.stats.revocations
        stats.bytes_revoked = self.broker.stats.bytes_revoked
        stats.cross_session_cache_hits = self.source_cache.stats.cross_session_hits
        stats.partial_extent_hits = self.source_cache.stats.partial_hits
        stats.speculative_revocations = self.broker.stats.speculative_revocations
        stats.source_queued_ms = sum(
            source.stats.queued_ms for source in self._sources()
        )
        stats.makespan_ms = self.clock.completion_ms
        cache_counters = self.source_cache.per_source_counters
        for source in self._sources():
            counters = cache_counters.get(source.name)
            if counters is None and source.stats.queued_ms == 0.0:
                continue
            summary = SourceLayerSummary(source.name, queued_ms=source.stats.queued_ms)
            if counters is not None:
                summary.cache_hits = counters.hits
                summary.cross_session_hits = counters.cross_session_hits
                summary.partial_hits = counters.partial_hits
            stats.per_source[source.name] = summary
        if self.prefetcher is not None:
            stats.prefetch = self.prefetcher.summary()
        return stats

    def _sources(self):
        return [self.catalog.source(name) for name in self.catalog.source_names]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = sum(1 for s in self.sessions.values() if s.finished)
        return (
            f"QueryServer({self.name!r}, sessions={len(self.sessions)}, "
            f"finished={done}, frontier={self.clock.frontier:.2f}ms)"
        )
