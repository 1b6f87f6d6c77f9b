"""Runtime statistics gathered by the execution engine.

The engine gathers per-operator cardinalities (fed back to the optimizer for
re-optimization), tuples-vs-time series (the figures' axes), and per-query
summaries (time to first tuple, completion time, disk I/O).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TupleTimeline:
    """A monotone series of ``(virtual_time_ms, cumulative_tuples)`` points."""

    times_ms: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)

    def record(self, time_ms: float, count: int) -> None:
        """Append an observation (times must be non-decreasing)."""
        self.times_ms.append(time_ms)
        self.counts.append(count)

    @property
    def total(self) -> int:
        return self.counts[-1] if self.counts else 0

    @property
    def time_to_first(self) -> float | None:
        """Virtual time of the first output tuple."""
        for time_ms, count in zip(self.times_ms, self.counts):
            if count > 0:
                return time_ms
        return None

    @property
    def completion_time(self) -> float | None:
        return self.times_ms[-1] if self.times_ms else None

    def time_for_count(self, count: int) -> float | None:
        """Earliest virtual time at which ``count`` tuples had been produced."""
        for time_ms, produced in zip(self.times_ms, self.counts):
            if produced >= count:
                return time_ms
        return None


@dataclass
class OperatorRuntimeStats:
    """Counters kept for every runtime operator."""

    operator_id: str
    tuples_produced: int = 0
    tuples_consumed: int = 0
    time_of_first_output: float | None = None
    time_of_last_output: float | None = None
    memory_peak_bytes: int = 0
    overflow_events: int = 0
    cache_hits: int = 0
    state: str = "pending"

    def record_output_batch(self, count: int, at_time: float) -> None:
        """Record ``count`` outputs produced by ``at_time`` (one counter update)."""
        if count <= 0:
            return
        self.tuples_produced += count
        if self.time_of_first_output is None:
            self.time_of_first_output = at_time
        self.time_of_last_output = at_time


@dataclass
class FragmentStats:
    """Result statistics for one completed fragment."""

    fragment_id: str
    result_name: str
    result_cardinality: int
    estimated_cardinality: int | None
    started_at_ms: float
    completed_at_ms: float
    timeline: TupleTimeline = field(default_factory=TupleTimeline)


@dataclass
class QueryRuntimeStats:
    """Everything the engine reports back after running (part of) a plan."""

    query_name: str
    operator_stats: dict[str, OperatorRuntimeStats] = field(default_factory=dict)
    fragment_stats: list[FragmentStats] = field(default_factory=list)
    output_timeline: TupleTimeline = field(default_factory=TupleTimeline)
    events_processed: int = 0
    rules_fired: int = 0
    reoptimizations: int = 0
    reschedules: int = 0
    completion_time_ms: float = 0.0
    #: Owning server session (``None`` for standalone queries).
    session_id: str | None = None

    def operator(self, operator_id: str) -> OperatorRuntimeStats:
        """Stats record for ``operator_id`` (created on first access)."""
        if operator_id not in self.operator_stats:
            self.operator_stats[operator_id] = OperatorRuntimeStats(operator_id)
        return self.operator_stats[operator_id]

    @property
    def time_to_first_tuple(self) -> float | None:
        return self.output_timeline.time_to_first

    def observed_cardinalities(self) -> dict[str, int]:
        """Result name -> actual cardinality, for optimizer feedback."""
        return {
            frag.result_name: frag.result_cardinality for frag in self.fragment_stats
        }


# -- multi-query server metrics ------------------------------------------------------


@dataclass
class SessionSummary:
    """One session's lifecycle on the server's shared virtual timeline."""

    session_id: str
    submitted_at_ms: float
    completed_at_ms: float | None = None
    status: str = "pending"
    result_cardinality: int = 0
    #: Scheduler quanta this session ran for (batch/fragment steps).
    slices: int = 0
    #: Times the session yielded the timeline to wait on a source.
    waits: int = 0
    wait_ms: float = 0.0
    cpu_ms: float = 0.0
    io_ms: float = 0.0

    @property
    def elapsed_ms(self) -> float | None:
        """Virtual time from admission to completion (None while running)."""
        if self.completed_at_ms is None:
            return None
        return self.completed_at_ms - self.submitted_at_ms


@dataclass
class SourceLayerSummary:
    """Per-source cache and queueing metrics for one server run."""

    source_name: str
    #: Completed-entry cache hits (any session) / by a session other than the filler.
    cache_hits: int = 0
    cross_session_hits: int = 0
    #: Followers that attached to an in-progress or detached partial extent.
    partial_hits: int = 0
    #: Virtual time readers spent queued for one of this source's connection slots.
    queued_ms: float = 0.0


@dataclass
class PrefetchSummary:
    """What the speculative prefetcher did with its revocable lease."""

    sources_warmed: int = 0
    sources_completed: int = 0
    sources_dropped: int = 0
    blocks_published: int = 0
    bytes_fetched: int = 0
    #: Fetched bytes of sources that served at least one (partial or full) hit.
    bytes_used: int = 0
    bytes_wasted: int = 0
    #: Current speculative lease size and live resident bytes charged to it.
    lease_bytes: int = 0
    resident_bytes: int = 0
    #: Revocations applied to the speculative lease.
    revocations: int = 0


@dataclass
class ServerStats:
    """Server-level metrics aggregated over all sessions.

    ``makespan_ms`` is the total virtual wall clock of the concurrent run —
    the quantity the throughput benchmark holds against the sum of
    back-to-back serial completion times (the sessions' ``elapsed_ms``): the
    gap between the two is exactly the overlap the cooperative scheduler and
    the shared source cache bought.
    """

    server_name: str
    sessions: list[SessionSummary] = field(default_factory=list)
    scheduler_slices: int = 0
    revocations: int = 0
    bytes_revoked: int = 0
    cross_session_cache_hits: int = 0
    #: Follower attachments to in-progress partial extents, server-wide.
    partial_extent_hits: int = 0
    #: Revocations whose victim was the prefetcher's speculative lease.
    speculative_revocations: int = 0
    source_queued_ms: float = 0.0
    makespan_ms: float = 0.0
    #: Per-source cache/queueing breakdown (only sources that saw traffic).
    per_source: dict[str, SourceLayerSummary] = field(default_factory=dict)
    #: Speculative prefetcher summary (``None`` when the layer is disabled).
    prefetch: PrefetchSummary | None = None
