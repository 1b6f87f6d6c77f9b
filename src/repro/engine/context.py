"""The execution context shared by all runtime operators of one query.

The context bundles the virtual clock, simulated disk, memory pool, local
store, wrappers, the event queue, and runtime statistics.  It also implements
the :class:`~repro.plan.rules.RuntimeContext` protocol so that rule conditions
can observe dynamic quantities (operator state, cardinalities, memory use).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.events import EventQueue
from repro.engine.stats import QueryRuntimeStats
from repro.errors import ExecutionError
from repro.network.cache import SourceCache
from repro.network.simclock import SimClock
from repro.network.wrapper import Wrapper
from repro.plan.rules import EventType
from repro.storage.disk import SimulatedDisk
from repro.storage.memory import MemoryPool
from repro.storage.table_store import LocalStore

#: Default CPU cost charged per tuple processed by an operator, in virtual ms.
DEFAULT_CPU_COST_MS = 0.002


@dataclass
class EngineConfig:
    """Tunables for the execution engine.

    Parameters
    ----------
    per_tuple_cpu_ms:
        CPU cost charged by each operator per tuple it processes.
    default_timeout_ms:
        Source timeout used by wrappers when the plan does not set one.
    materialization_cost_ms_per_tuple:
        Cost of writing one tuple at a materialization point.
    collector_dedup:
        Whether collectors deduplicate tuples arriving from overlapping
        sources (on the collector's key attributes).
    disk_page_read_ms / disk_page_write_ms:
        Virtual cost of one page of spill I/O.  Benchmarks that study memory
        overflow raise these to model a spinning disk.
    columnar_batches:
        When true (the default), batch-producing leaves build columnar
        (struct-of-arrays) :class:`~repro.storage.batch.Batch` objects and
        operators with native columnar paths keep data in columns end to
        end.  When false, batches stay row-backed — the pre-columnar
        "row-batch" drive, retained as a baseline for the parity tests and
        ``benchmarks/bench_columnar_pipeline.py``.  Virtual-time accounting
        is identical either way.
    encoded_columns:
        When true (the default), the storage layer *encodes* columns:
        string attributes dictionary-encode (a list of codes plus a
        shared per-column dictionary) in scan batches, hash-table
        arenas, and spill chunks; arrival stamps run-length encode
        where blocks share one stamp; and memory budgets / spill files
        charge the encoded footprint (``Schema.encoded_row_size`` — the
        *modelled* engine's 8 bytes per number or code, whatever Python
        container holds the value).
        Orthogonal to the drive mode: the hash tables and overflow files
        are encoded (or not) identically under all three drives, so
        overflow events and spill I/O never depend on the drive.  Disable
        for the plain-columnar baseline the encoding benchmark measures
        against.
    enable_source_caching:
        When true, fully-read source extents are cached (the paper's
        "caching of source data" extension) and later scans of the same
        source are served locally.
    source_cache_max_age_ms:
        Expiry for cached source data (``None`` = never expires).
    validate_plans:
        When true (the default), plans are statically validated before any
        runtime operator is built: schema compatibility at unions/joins,
        dependent-join bind keys produced by the left input, join-key
        encoding consistency, and (at server admission) memory allotments
        not below the broker floor.  A violation raises
        :class:`~repro.errors.PlanValidationError` with every finding,
        instead of failing mid-stream with a partially executed plan.
    exchange_lanes:
        Partition parallelism.  With N > 1 the builder wraps every
        partitionable operator (hash joins, keyed collectors) in an
        :class:`~repro.engine.operators.exchange.Exchange`: inputs are
        hash-partitioned on the join/dedup key across N worker lanes, each
        lane runs the operator on its own virtual clock (a session-style
        step generator on the shared timeline), and the merge side
        re-interleaves lane outputs deterministically.  ``1`` (the
        default) executes every operator serially, exactly as before.
    speculative_sources:
        When true, the source layer is speculative (the other half of the
        paper's Section 8 extension): a scan's first reader publishes its
        in-progress extent block-by-block into the shared cache, and later
        scans of the same source stream the cached prefix at local CPU
        speed, falling in behind the live connection for the tail instead
        of queueing for a connection slot.  ``False`` (the default) keeps
        completion-based admission — behavior and virtual-time accounting
        bit-identical to the non-speculative engine.
    prefetch_budget_bytes:
        Memory allowance for the server's plan-aware prefetcher, charged to
        a speculative broker lease that revocation victimizes first.  ``0``
        (the default) disables prefetching; only meaningful under the
        multi-query server with ``speculative_sources`` enabled.
    """

    per_tuple_cpu_ms: float = DEFAULT_CPU_COST_MS
    default_timeout_ms: float | None = 60_000.0
    materialization_cost_ms_per_tuple: float = 0.004
    collector_dedup: bool = True
    disk_page_read_ms: float = 0.12
    disk_page_write_ms: float = 0.15
    columnar_batches: bool = True
    encoded_columns: bool = True
    enable_source_caching: bool = False
    source_cache_max_age_ms: float | None = None
    speculative_sources: bool = False
    prefetch_budget_bytes: int = 0
    validate_plans: bool = True
    exchange_lanes: int = 1


class ExecutionContext:
    """Per-query runtime state shared by operators, executor, and rules."""

    def __init__(
        self,
        catalog: DataSourceCatalog,
        clock: SimClock | None = None,
        memory_pool: MemoryPool | None = None,
        disk: SimulatedDisk | None = None,
        local_store: LocalStore | None = None,
        config: EngineConfig | None = None,
        query_name: str = "query",
        source_cache: SourceCache | None = None,
        session_id: str | None = None,
    ) -> None:
        self.catalog = catalog
        #: Identity of the owning server session (``None`` outside the
        #: multi-query server).  Tags shared-cache fills/lookups so
        #: cross-session hits are counted and future-time fills from
        #: sessions running ahead on the shared timeline stay invisible
        #: until this session's clock reaches them.
        self.session_id = session_id
        self.config = config or EngineConfig()
        self.clock = clock or SimClock()
        self.memory_pool = memory_pool or MemoryPool()
        self.disk = disk or SimulatedDisk(
            page_read_ms=self.config.disk_page_read_ms,
            page_write_ms=self.config.disk_page_write_ms,
            encoded=self.config.encoded_columns,
        )
        self.local_store = local_store or LocalStore()
        if source_cache is not None:
            self.source_cache: SourceCache | None = source_cache
        elif self.config.enable_source_caching:
            self.source_cache = SourceCache(max_age_ms=self.config.source_cache_max_age_ms)
        else:
            self.source_cache = None
        self.events = EventQueue()
        self.stats = QueryRuntimeStats(query_name=query_name)
        self._wrappers: dict[str, list[Wrapper]] = {}
        self._operators: dict[str, object] = {}
        self._deactivated: set[str] = set()
        #: Event keys ``(event_type, subject)`` that some registered rule
        #: triggers on.  Emitting a watched event raises ``batch_interrupt``,
        #: which tells batch-mode operators to cut their current batch short so
        #: the executor drains the queue at exactly the point a tuple-at-a-time
        #: drive would have — rule firing order is preserved under batching.
        self.watched_event_keys: set[tuple[EventType, str]] = set()
        self.batch_interrupt = False
        #: Drive-mode switch for batch-producing leaves: columnar
        #: (struct-of-arrays) batches when true, row-backed batches when
        #: false.  Seeded from the config; the bench harness flips it per run
        #: to compare the two batch drives.
        self.columnar = self.config.columnar_batches
        #: Column-encoding switch (dictionary strings + run-length arrival
        #: stamps); orthogonal to the drive mode — see ``EngineConfig``.
        self.encoded_columns = self.config.encoded_columns

    def derive_worker(self, label: str) -> "ExecutionContext":
        """A worker context for one exchange execution site (lane or producer).

        The worker shares everything whose identity matters across sites —
        catalog, memory pool (so per-lane budgets are individual broker
        leases), local store, cross-session source cache, config, the event
        queue, and the runtime stats registry — but runs on its *own*
        virtual clock and simulated disk, so its CPU, waits, and spill I/O
        occupy their own span of the shared timeline instead of serializing
        onto this context's clock.  Inside the multi-query server the worker
        clock is registered on the server timeline
        (:meth:`~repro.server.clock.ServerClock.lane_clock`); standalone it
        is a plain :class:`SimClock` starting at this context's current time.
        """
        clock = self.clock
        server = getattr(clock, "server", None)
        if server is not None:
            worker_clock = server.lane_clock(
                getattr(clock, "session_id", self.stats.query_name), label, clock.now
            )
        else:
            worker_clock = SimClock(start_ms=clock.now)
        worker = ExecutionContext(
            self.catalog,
            clock=worker_clock,
            memory_pool=self.memory_pool,
            local_store=self.local_store,
            config=self.config,
            query_name=f"{self.stats.query_name}.{label}",
            source_cache=self.source_cache,
            session_id=self.session_id,
        )
        # Shared observability: worker operators report into this query's
        # stats and event queue (their ids are lane-qualified, so there are
        # no collisions).  Watched-event keys stay local — rules fire on the
        # coordinating context, not inside lanes.
        worker.stats = self.stats
        worker.events = self.events
        worker.columnar = self.columnar
        worker.encoded_columns = self.encoded_columns
        return worker

    # -- wrappers ------------------------------------------------------------------

    def create_wrapper(self, source_name: str, timeout_ms: float | None = None) -> Wrapper:
        """Create a wrapper (a fresh streaming connection) for ``source_name``.

        Every scan operator gets its own wrapper so that a plan may read the
        same source more than once (self-joins, retries after rescheduling).
        All wrappers created for a query are tracked for statistics reporting.
        """
        source = self.catalog.source(source_name)
        wrapper = Wrapper(
            source,
            self.clock,
            timeout_ms=timeout_ms if timeout_ms is not None else self.config.default_timeout_ms,
            encoded_columns=self.config.encoded_columns,
        )
        self._wrappers.setdefault(source_name, []).append(wrapper)
        return wrapper

    @property
    def wrappers(self) -> dict[str, list[Wrapper]]:
        """All wrappers created so far, keyed by source name."""
        return {name: list(items) for name, items in self._wrappers.items()}

    # -- operator registry ------------------------------------------------------------

    def register_operator(self, operator) -> None:
        """Track a runtime operator so rules and actions can address it by id."""
        self._operators[operator.operator_id] = operator

    def operator(self, operator_id: str):
        try:
            return self._operators[operator_id]
        except KeyError:
            raise ExecutionError(f"no runtime operator {operator_id!r}") from None

    def has_operator(self, operator_id: str) -> bool:
        return operator_id in self._operators

    @property
    def operators(self) -> dict[str, object]:
        return dict(self._operators)

    # -- activation --------------------------------------------------------------------

    def deactivate(self, target: str) -> None:
        """Mark an operator/fragment as deactivated."""
        self._deactivated.add(target)

    def reactivate(self, target: str) -> None:
        self._deactivated.discard(target)

    def is_deactivated(self, target: str) -> bool:
        return target in self._deactivated

    # -- events ------------------------------------------------------------------------

    def emit_event(self, event_type: EventType, subject: str, value=None) -> None:
        """Raise a runtime event at the current virtual time."""
        self.events.emit(event_type, subject, value, at_time=self.clock.now)
        if (event_type, subject) in self.watched_event_keys:
            self.batch_interrupt = True

    def watch_events(self, keys) -> None:
        """Declare event keys that must interrupt in-flight batches (see above)."""
        self.watched_event_keys.update(keys)

    def event_watched(self, event_type: EventType, subject: str) -> bool:
        """True when a registered rule triggers on ``(event_type, subject)``."""
        return (event_type, subject) in self.watched_event_keys

    # -- RuntimeContext protocol (observed by rule conditions) ----------------------------

    def operator_state(self, operator_id: str) -> str:
        if operator_id in self._deactivated:
            return "deactivated"
        return self.stats.operator(operator_id).state

    def operator_card(self, operator_id: str) -> int:
        return self.stats.operator(operator_id).tuples_produced

    def operator_est_card(self, operator_id: str) -> int | None:
        operator = self._operators.get(operator_id)
        if operator is None:
            return None
        return getattr(operator, "estimated_cardinality", None)

    def operator_memory(self, operator_id: str) -> int:
        operator = self._operators.get(operator_id)
        if operator is None:
            return 0
        budget = getattr(operator, "budget", None)
        return budget.used_bytes if budget is not None else 0

    def operator_time_since_last_tuple(self, operator_id: str) -> float:
        stats = self.stats.operator(operator_id)
        if stats.time_of_last_output is None:
            return self.clock.now
        return self.clock.now - stats.time_of_last_output
