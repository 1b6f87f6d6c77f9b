"""Query sessions: one user's query as a resumable unit of server work.

A :class:`QuerySession` owns one :class:`~repro.engine.context.ExecutionContext`
(session clock on the shared timeline, broker-backed memory pool, the
server's shared source cache) and one
:class:`~repro.plan.fragments.QueryPlan` — a hand-built operator tree is
admitted as a one-fragment plan — stepped through the executor's fragment
loop, :meth:`~repro.engine.executor.QueryExecutor.steps`.  The generator
yields a :class:`~repro.engine.executor.StepEvent` at every batch/fragment
boundary and before blocking on a source, which is where the cooperative
scheduler takes over and may run another session instead.
"""

from __future__ import annotations

from enum import Enum

from repro.engine.context import ExecutionContext
from repro.engine.executor import ExecutionOutcome, QueryExecutor, StepEvent
from repro.engine.stats import SessionSummary, TupleTimeline
from repro.plan.fragments import QueryPlan
from repro.storage.relation import Relation

#: Rows in one scheduling slice: the executor's batch cap for a session,
#: i.e. how long one session may hold the shared timeline before the
#: scheduler can run another.  It is not the engine's batch grain
#: (``DEFAULT_BATCH_SIZE``): a grain of 1024 amortises per-batch overhead in
#: a single query, but as a slice it lets an early session hold the
#: timeline four times as long.  Measured on the prefetch pipeline
#: (``tests/test_speculative.py::TestPrefetchPipeline``): with speculation,
#: the late sessions' mean time to first tuple is 67.4 virtual ms at 256
#: rows a slice and 210.6 at 1024, against 336.8 without speculation
#: (5.00x, and 1.60x under the test's 2.0x bar).
SESSION_SLICE_ROWS = 256


class SessionStatus(str, Enum):
    """Lifecycle of a session on the scheduler."""

    PENDING = "pending"
    RUNNING = "running"
    WAITING = "waiting"
    COMPLETED = "completed"
    FAILED = "failed"


class QuerySession:
    """One resumable query on the server's shared virtual timeline.

    Use :meth:`QueryServer.submit` / :meth:`QueryServer.submit_plan` to
    create sessions; the scheduler drives them through :meth:`step`.
    """

    def __init__(
        self,
        session_id: str,
        context: ExecutionContext,
        admission_index: int,
        plan: QueryPlan,
    ) -> None:
        self.session_id = session_id
        self.context = context
        self.admission_index = admission_index
        self.status = SessionStatus.PENDING
        self.summary = SessionSummary(
            session_id=session_id, submitted_at_ms=context.clock.now
        )
        context.stats.session_id = session_id
        #: Virtual time of the session's next scheduling event: its clock
        #: position, or the arrival it is blocked on while waiting.
        self.next_event_ms = context.clock.now
        self.result: Relation | None = None
        self.result_cardinality = 0
        self.timeline = TupleTimeline()
        self.outcome: ExecutionOutcome | None = None
        self.error: str | None = None
        self.executor = QueryExecutor(context, batch_size=SESSION_SLICE_ROWS)
        self._gen = self.executor.steps(plan)

    # -- scheduler interface ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.status in (SessionStatus.COMPLETED, SessionStatus.FAILED)

    def step(self) -> bool:
        """Run one quantum; returns ``False`` once the session is finished.

        A quantum ends at the generator's next yield: after a batch crossed
        the fragment root, after a fragment completed, or when the plan is
        about to block on a source arrival (the session then reports that
        arrival as its next event so the scheduler can run someone else
        through the stall).
        """
        if self.finished:
            return False
        self.status = SessionStatus.RUNNING
        try:
            event: StepEvent = next(self._gen)
        except StopIteration:
            self._complete()
            return False
        except Exception as exc:  # noqa: BLE001 - one session's failure is contained
            self.error = str(exc)
            self._finish(SessionStatus.FAILED)
            return False
        self.summary.slices += 1
        if event.kind == "wait" and event.wait_until_ms is not None:
            self.summary.waits += 1
            self.status = SessionStatus.WAITING
            self.next_event_ms = event.wait_until_ms
        else:
            self.next_event_ms = self.context.clock.now
        return True

    # -- completion ---------------------------------------------------------------------

    def _complete(self) -> None:
        self.outcome = outcome = self.executor.outcome
        if outcome.answer is not None:
            self.result = outcome.answer
            self.result_cardinality = outcome.answer.cardinality
        self.timeline = outcome.stats.output_timeline
        if outcome.completed:
            self._finish(SessionStatus.COMPLETED)
            return
        # Replan/reschedule requests surface as failures at the session
        # level: the server has no replanning driver, so a plan that stopped
        # for one never produced its answer and must not count as a
        # completed session.  The full ExecutionOutcome stays on
        # ``self.outcome`` for callers that want to replan and resubmit.
        self.error = outcome.error or f"execution ended with {outcome.status.value}"
        self._finish(SessionStatus.FAILED)

    def _finish(self, status: SessionStatus) -> None:
        self.status = status
        clock = self.context.clock
        summary = self.summary
        summary.status = status.value
        summary.completed_at_ms = clock.now
        summary.result_cardinality = self.result_cardinality
        summary.wait_ms = clock.stats.wait_ms
        summary.cpu_ms = clock.stats.cpu_ms
        summary.io_ms = clock.stats.io_ms
        self.next_event_ms = clock.now
        server = getattr(clock, "server", None)
        if server is not None:
            server.finish(self.session_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuerySession({self.session_id!r}, {self.status.value}, "
            f"next_event={self.next_event_ms:.2f}ms)"
        )
