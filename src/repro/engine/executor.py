"""The query executor: runs plan fragments, gathers statistics, fires events.

The executor processes each fragment as a single pipelined unit, materializes
its result in the local store, and raises the ``closed(fragment)`` event so
that rules can decide whether to re-optimize, reschedule, or pick the next
fragment (contingent planning).  When a rule requests re-optimization or
rescheduling, the executor stops and reports back to its caller — the
interleaved planning-and-execution driver in :mod:`repro.core`.

Execution is *resumable*: :meth:`QueryExecutor.steps` is a generator that
yields a :class:`StepEvent` at every batch/fragment boundary and whenever the
plan is about to block on a source (with the arrival time it is waiting
for).  The multi-query server drives many executors cooperatively through
this generator, overlapping one session's network stalls with another's CPU
on the shared virtual timeline; :meth:`QueryExecutor.execute` simply drains
the generator, so single-query behaviour — accounting included — is
byte-for-byte the pre-server loop.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.engine.builder import build_operator
from repro.engine.context import ExecutionContext
from repro.engine.event_handler import EventHandler
from repro.engine.iterators import DEFAULT_BATCH_SIZE
from repro.engine.operators.materialize import Materialize
from repro.engine.stats import FragmentStats, QueryRuntimeStats, TupleTimeline
from repro.errors import ExecutionError, SourceTimeoutError, SourceUnavailableError
from repro.plan.fragments import Fragment, FragmentStatus, QueryPlan
from repro.plan.physical import OperatorType
from repro.plan.rules import Action, ActionType, Event, EventType
from repro.storage.relation import Relation


def wait_hint(root, clock) -> float | None:
    """Arrival time ``root``'s next pull will block for; ``None`` if ready.

    Shared by the executor's fragment steps and the server session's
    operator-tree drive so both yield identical wait events to the
    scheduler.  Side-effect free (pure ``peek_arrival``); an infinite
    arrival (dead source) is not a schedulable event — the pull itself
    surfaces the timeout.
    """
    arrival = root.peek_arrival()
    if arrival is None:
        return None
    if arrival > clock.now and arrival != float("inf"):
        return arrival
    return None


class ExecutionStatus(str, Enum):
    """How a call to :meth:`QueryExecutor.execute` ended."""

    COMPLETED = "completed"
    NEEDS_REOPTIMIZATION = "needs_reoptimization"
    RESCHEDULE_REQUESTED = "reschedule_requested"
    FAILED = "failed"


@dataclass
class StepEvent:
    """One scheduling point yielded by :meth:`QueryExecutor.steps`.

    ``kind`` is ``"batch"`` (a batch/row crossed the fragment root),
    ``"wait"`` (the next pull will block until ``wait_until_ms`` — the
    scheduler may run another session meanwhile), or ``"fragment"`` (a
    fragment completed).  ``time_ms`` is the session's virtual time at the
    yield.
    """

    kind: str
    time_ms: float
    wait_until_ms: float | None = None
    fragment_id: str | None = None


@dataclass
class ExecutionOutcome:
    """Result of executing (part of) a plan."""

    status: ExecutionStatus
    stats: QueryRuntimeStats
    answer: Relation | None = None
    completed_fragments: list[str] = field(default_factory=list)
    remaining_fragments: list[str] = field(default_factory=list)
    observed_cardinalities: dict[str, int] = field(default_factory=dict)
    failed_sources: list[str] = field(default_factory=list)
    replan_reason: str = ""
    error: str = ""

    @property
    def completed(self) -> bool:
        return self.status == ExecutionStatus.COMPLETED


class QueryExecutor:
    """Executes a :class:`~repro.plan.fragments.QueryPlan` over an execution context.

    Fragments are driven batch-at-a-time by default (``batch_size`` rows per
    ``next_batch`` call, ramping up from a single row so time-to-first-tuple
    is recorded exactly).  Batches are columnar (struct-of-arrays) wherever an
    operator has a native columnar path and row-backed where a path is
    inherently per-row (watched scans, collectors); the executor only reads
    batch lengths, so both representations flow through unchanged.  Events
    are drained at batch boundaries; operators cut batches short whenever an
    event with a registered rule fires, so rule semantics are identical to
    the tuple-at-a-time drive (``batch_size=None``), which is retained as a
    baseline.
    """

    def __init__(self, context: ExecutionContext, batch_size: int | None = DEFAULT_BATCH_SIZE) -> None:
        self.context = context
        self.batch_size = batch_size
        # The handler calls back into this executor; through a weak method, so
        # the pair forms no reference cycle and a finished executor (with the
        # context and results it holds) is freed without a full collection.
        apply_action = weakref.WeakMethod(self._apply_action)
        self.event_handler = EventHandler(
            context, lambda action, event: apply_action()(action, event)
        )
        self._reoptimize_requested = False
        self._reschedule_requested = False
        self._error_message: str | None = None
        self._replan_reason = ""
        self._selected_fragments: set[str] = set()
        self._skipped_fragments: set[str] = set()
        self._plan: QueryPlan | None = None
        #: Set by :meth:`steps` when the generator finishes (what
        #: :meth:`execute` returns; the server session reads it on completion).
        self.outcome: ExecutionOutcome | None = None
        self._emit_wait_hints = True

    # -- rule action dispatch ---------------------------------------------------------------

    def _apply_action(self, action: Action, event: Event) -> None:
        """Execute one rule action (all actions run before the next event)."""
        kind = action.action_type
        if kind == ActionType.SET_OVERFLOW_METHOD:
            operator = self.context.operator(action.target)
            operator.set_overflow_method(action.argument)
        elif kind == ActionType.ALTER_MEMORY:
            operator = self.context.operator(action.target)
            budget = getattr(operator, "budget", None)
            if budget is None:
                raise ExecutionError(
                    f"operator {action.target!r} has no memory budget to alter"
                )
            budget.resize(int(action.argument))
        elif kind == ActionType.DEACTIVATE:
            self._deactivate_target(action.target)
        elif kind == ActionType.ACTIVATE:
            collector = self.context.operator(action.target)
            collector.activate_child(str(action.argument))
        elif kind == ActionType.RESCHEDULE:
            self._reschedule_requested = True
        elif kind == ActionType.REOPTIMIZE:
            self._reoptimize_requested = True
            self._replan_reason = f"rule fired on {event}"
        elif kind == ActionType.RETURN_ERROR:
            self._error_message = str(action.argument)
        elif kind == ActionType.SELECT_FRAGMENT:
            self._select_fragment(action.target)
        else:  # pragma: no cover - exhaustive over ActionType
            raise ExecutionError(f"unsupported rule action {kind!r}")

    def _deactivate_target(self, target: str) -> None:
        self.event_handler.deactivate_owner(target)
        self.context.deactivate(target)
        if self.context.has_operator(target):
            operator = self.context.operator(target)
            parent_collector = self._collector_owning(target)
            if parent_collector is not None:
                parent_collector.deactivate_child(target)
            else:
                operator.deactivate()
        elif self._plan is not None:
            for fragment in self._plan.fragments:
                if fragment.fragment_id == target:
                    self._skipped_fragments.add(target)

    def _collector_owning(self, child_id: str):
        for operator in self.context.operators.values():
            if hasattr(operator, "activate_child") and hasattr(operator, "deactivate_child"):
                child_ids = getattr(operator, "tuples_per_child", {})
                if child_id in child_ids:
                    return operator
        return None

    def _select_fragment(self, fragment_id: str) -> None:
        """Contingent planning: keep ``fragment_id``; skip its group siblings."""
        self._selected_fragments.add(fragment_id)
        if self._plan is None:
            return
        for members in self._plan.choice_groups.values():
            if fragment_id in members:
                for other in members:
                    if other != fragment_id:
                        self._skipped_fragments.add(other)

    # -- fragment execution --------------------------------------------------------------------

    def _should_skip(self, fragment: Fragment) -> bool:
        if fragment.fragment_id in self._skipped_fragments:
            return True
        if self._plan is None:
            return False
        for members in self._plan.choice_groups.values():
            if fragment.fragment_id in members:
                selected = self._selected_fragments & set(members)
                if selected and fragment.fragment_id not in selected:
                    return True
        return False

    def _wait_hint(self, root) -> float | None:
        """Arrival time the next pull will block for, or ``None`` if data is ready.

        ``peek_arrival`` is side-effect free, so probing here never perturbs
        the virtual-time accounting; it only tells the cooperative scheduler
        that another session could use this span of the shared timeline.
        Disabled (always ``None``) when nothing consumes the hints —
        :meth:`execute` drains the generator itself, and a per-pull tree
        probe would tax the single-query hot path for no one's benefit.
        """
        if not self._emit_wait_hints:
            return None
        return wait_hint(root, self.context.clock)

    def _fragment_steps(self, fragment: Fragment, is_final: bool):
        """Run one fragment as a resumable generator (see :meth:`steps`)."""
        started = self.context.clock.now
        root_spec = fragment.root
        needs_materialize = root_spec.operator_type != OperatorType.MATERIALIZE
        root = build_operator(root_spec, self.context)
        if needs_materialize:
            root = Materialize(
                f"{fragment.fragment_id}-mat",
                self.context,
                root,
                result_name=fragment.result_name,
                estimated_cardinality=fragment.estimated_cardinality,
            )
        timeline = TupleTimeline()
        fragment.status = FragmentStatus.RUNNING
        self.context.emit_event(EventType.OPENED, fragment.fragment_id)
        root.open()
        self._drain_events()
        produced = 0
        try:
            if self.batch_size is None:
                # Tuple-at-a-time drive (the pre-vectorization baseline).
                while True:
                    if self._error_message:
                        raise ExecutionError(self._error_message)
                    wait_until = self._wait_hint(root)
                    if wait_until is not None:
                        yield StepEvent(
                            "wait",
                            self.context.clock.now,
                            wait_until_ms=wait_until,
                            fragment_id=fragment.fragment_id,
                        )
                    row = root.next()
                    if row is None:
                        break
                    produced += 1
                    timeline.record(self.context.clock.now, produced)
                    if is_final:
                        self.context.stats.output_timeline.record(self.context.clock.now, produced)
                    self._drain_events()
                    yield StepEvent(
                        "batch", self.context.clock.now, fragment_id=fragment.fragment_id
                    )
            else:
                # Batch-at-a-time drive.  Ramp the batch size up from one row
                # so the first output tuple is timestamped exactly, then grow
                # to the configured size for bulk throughput.
                batch_size = 1
                while True:
                    if self._error_message:
                        raise ExecutionError(self._error_message)
                    wait_until = self._wait_hint(root)
                    if wait_until is not None:
                        yield StepEvent(
                            "wait",
                            self.context.clock.now,
                            wait_until_ms=wait_until,
                            fragment_id=fragment.fragment_id,
                        )
                    batch = root.next_batch(batch_size)
                    if not batch:
                        break
                    produced += len(batch)
                    timeline.record(self.context.clock.now, produced)
                    if is_final:
                        self.context.stats.output_timeline.record(self.context.clock.now, produced)
                    self._drain_events()
                    batch_size = min(batch_size * 4, self.batch_size)
                    yield StepEvent(
                        "batch", self.context.clock.now, fragment_id=fragment.fragment_id
                    )
        finally:
            root.close()
            self._drain_events()
        fragment.status = FragmentStatus.COMPLETED
        self.context.emit_event(EventType.CLOSED, fragment.fragment_id, value=produced)
        self._drain_events()
        stats = FragmentStats(
            fragment_id=fragment.fragment_id,
            result_name=fragment.result_name,
            result_cardinality=produced,
            estimated_cardinality=fragment.estimated_cardinality,
            started_at_ms=started,
            completed_at_ms=self.context.clock.now,
            timeline=timeline,
        )
        self.context.stats.fragment_stats.append(stats)
        self.context.catalog.record_observed_cardinality(fragment.result_name, produced)
        yield StepEvent(
            "fragment", self.context.clock.now, fragment_id=fragment.fragment_id
        )

    def _drain_events(self) -> None:
        handler, stats = self.event_handler, self.context.stats
        processed = handler.events_processed
        fired = handler.process(self.context.events)
        self.context.batch_interrupt = False
        if fired:
            # Fired (one-shot) rules and deactivated owners no longer watch
            # their trigger keys; refresh so batches stop being cut for them.
            self.context.watched_event_keys = handler.watched_keys
        # A context outlives its executors (one per re-plan): counts accumulate.
        stats.events_processed += handler.events_processed - processed
        stats.rules_fired += fired

    # -- top-level execution -----------------------------------------------------------------------

    def execute(self, plan: QueryPlan) -> ExecutionOutcome:
        """Run ``plan`` until completion, a replan/reschedule request, or failure."""
        for _ in self.steps(plan, wait_hints=False):
            pass
        assert self.outcome is not None
        return self.outcome

    def steps(self, plan: QueryPlan, wait_hints: bool = True) -> Iterator[StepEvent]:
        """Resumable execution: yield at batch/fragment boundaries and source waits.

        The session scheduler drives this generator one step at a time; when
        it finishes, :attr:`outcome` holds the same
        :class:`ExecutionOutcome` that :meth:`execute` returns.
        ``wait_hints=False`` suppresses the pre-pull ``peek_arrival`` probes
        (and their ``"wait"`` events) for callers that ignore them.
        """
        self.outcome = None
        self._emit_wait_hints = wait_hints
        self._plan = plan
        self.event_handler.register_all(
            rule for rule in plan.all_rules() if not rule.fired
        )
        # Batches must be interrupted whenever an event that can fire a rule
        # is emitted, so rules run at the same per-tuple points as the
        # tuple-at-a-time drive.
        self.context.watch_events(self.event_handler.watched_keys)
        completed: list[str] = []
        failed_sources: list[str] = []
        stats = self.context.stats
        ordered = plan.execution_order()
        for index, fragment in enumerate(ordered):
            if self._should_skip(fragment):
                fragment.status = FragmentStatus.SKIPPED
                continue
            is_final = fragment.is_final
            try:
                yield from self._fragment_steps(fragment, is_final)
            except (SourceTimeoutError, SourceUnavailableError) as exc:
                fragment.status = FragmentStatus.FAILED
                failed_sources.extend(
                    source for source in fragment.sources() if source not in failed_sources
                )
                self._drain_events()
                remaining = [f.fragment_id for f in ordered[index:] if not self._should_skip(f)]
                if self._reschedule_requested:
                    stats.reschedules += 1
                    self.outcome = ExecutionOutcome(
                        status=ExecutionStatus.RESCHEDULE_REQUESTED,
                        stats=stats,
                        completed_fragments=completed,
                        remaining_fragments=remaining,
                        observed_cardinalities=stats.observed_cardinalities(),
                        failed_sources=failed_sources,
                    )
                    return
                if self._reoptimize_requested:
                    stats.reoptimizations += 1
                    self.outcome = ExecutionOutcome(
                        status=ExecutionStatus.NEEDS_REOPTIMIZATION,
                        stats=stats,
                        completed_fragments=completed,
                        remaining_fragments=remaining,
                        observed_cardinalities=stats.observed_cardinalities(),
                        failed_sources=failed_sources,
                        replan_reason=str(exc),
                    )
                    return
                self.outcome = ExecutionOutcome(
                    status=ExecutionStatus.FAILED,
                    stats=stats,
                    completed_fragments=completed,
                    remaining_fragments=remaining,
                    observed_cardinalities=stats.observed_cardinalities(),
                    failed_sources=failed_sources,
                    error=str(exc),
                )
                return
            except ExecutionError as exc:
                fragment.status = FragmentStatus.FAILED
                self.outcome = ExecutionOutcome(
                    status=ExecutionStatus.FAILED,
                    stats=stats,
                    completed_fragments=completed,
                    remaining_fragments=[f.fragment_id for f in ordered[index:]],
                    observed_cardinalities=stats.observed_cardinalities(),
                    error=str(exc),
                )
                return
            completed.append(fragment.fragment_id)
            if self._error_message:
                self.outcome = ExecutionOutcome(
                    status=ExecutionStatus.FAILED,
                    stats=stats,
                    completed_fragments=completed,
                    remaining_fragments=[f.fragment_id for f in ordered[index + 1 :]],
                    observed_cardinalities=stats.observed_cardinalities(),
                    error=self._error_message,
                )
                return
            if self._reoptimize_requested and index + 1 < len(ordered):
                stats.reoptimizations += 1
                self.outcome = ExecutionOutcome(
                    status=ExecutionStatus.NEEDS_REOPTIMIZATION,
                    stats=stats,
                    completed_fragments=completed,
                    remaining_fragments=[f.fragment_id for f in ordered[index + 1 :]],
                    observed_cardinalities=stats.observed_cardinalities(),
                    replan_reason=self._replan_reason,
                )
                return
            self._reoptimize_requested = False
            self._replan_reason = ""

        stats.completion_time_ms = self.context.clock.now
        answer = None
        if plan.answer_name and plan.answer_name in self.context.local_store:
            answer = self.context.local_store.get(plan.answer_name)
        self.outcome = ExecutionOutcome(
            status=ExecutionStatus.COMPLETED,
            stats=stats,
            answer=answer,
            completed_fragments=completed,
            remaining_fragments=[],
            observed_cardinalities=stats.observed_cardinalities(),
            failed_sources=failed_sources,
        )
