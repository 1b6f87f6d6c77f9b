"""Partition-parallel execution: the ``Exchange`` / ``ExchangeSource`` pair.

An :class:`Exchange` hash-partitions its input streams by key across N worker
*lanes*.  Each lane is an independent operator subtree (built by a factory the
planner supplies) running on its own worker clock registered on the server's
shared virtual timeline, exactly like a session: the exchange steps whichever
lane has the earliest next event, so the interleaving — and with it every
result and every virtual-time statistic — is fully deterministic.  Producer
subtrees likewise run on their own worker clocks, so scan and network time is
overlapped with lane CPU instead of serialized in front of it on the virtual
timeline.

Lanes are step generators in this process.  A producer *starts* when the
first lane opens its :class:`ExchangeSource` for that input: the input's
subtree opens on the producer's own clock, advanced to the opening lane's
time, and is pumped to completion — everything routed — before the open
returns.  A join lane opens both inputs as the exchange opens, so join
producers start then; a collector lane opens a standby mirror only when its
policy activates it, so a mirror nobody falls back to is never contacted
(Section 4.1).  Virtual time cannot tell a drained producer from a
demand-driven one — producer clocks advance only through the fixed pump
sequence, lane clocks only through serves and processing, and nothing flows
from lanes back into producers — while draining makes each lane a pure
function of its own routed queues and ``ExchangeSource.peek_arrival`` an
effect-free read.

Data movement stays encoded end to end: the producer routes a batch by
hashing the *canonical* key values (per-side dictionaries assign different
codes to the same string, so codes themselves cannot be hashed), then ships
per-lane slices built with :meth:`Batch.take` — a per-column gather of codes;
strings never cross the lane boundary.  The merge side re-interleaves lane
outputs by arrival stamp, earliest first, with the lane index as the
deterministic tie-break.

Causality on the timeline:

* a routed batch becomes *available* to a lane at the producer clock's time
  when it was routed; the lane's :class:`ExchangeSource` advances the lane
  clock to that stamp before serving it (a lane cannot read data from its
  producer's future);
* a merged batch carries the lane clock's time when the lane emitted it; the
  exchange advances the consumer clock to that stamp before handing it on;
* a producer's failure carries the producer clock's time when the pull
  raised; a lane advances to that stamp before re-raising it, and the
  exchange advances the consumer clock to the raising lane's before the error
  leaves it (nobody observes a failure before it happened);
* at end of stream the consumer clock advances to the *makespan* — the
  maximum over all producer and lane clocks — because the exchange is not
  done until its slowest worker is.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Sequence

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator, close_all, wait_hint
from repro.errors import ExecutionError
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.hash_table import stable_bucket_of
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder

#: CPU charge per routed row, as a fraction of the configured per-tuple cost.
#: Routing hashes one key tuple and appends one index per row — cheaper than
#: an operator that materializes or transforms the row, but not free; it is
#: charged on the *producer's* clock, where the routing work happens.
ROUTE_CPU_FACTOR = 0.25


def _leave_timeline(clock) -> None:
    """Stop ``clock`` constraining the server frontier (nothing to do standalone)."""
    server = getattr(clock, "server", None)
    if server is not None:
        server.finish(clock.session_id)


class ExchangeSource(Operator):
    """Lane-side leaf: serves the batches routed to one lane from one input.

    Opening the source starts its input's producer (the first lane to open
    one does the work), and a started producer has drained: everything routed
    to this lane is queued before its first pull.  An empty queue is therefore
    this lane's end of stream for that input — or the producer's recorded
    failure — and ``peek_arrival`` is a pure read of the queue head, the
    effect-free peek contract ``tests/invariants.py`` checks.
    """

    def __init__(
        self, operator_id: str, context: ExecutionContext, producer: "_ProducerDriver"
    ) -> None:
        super().__init__(operator_id, context)
        self._producer = producer
        producer.sources.append(self)  # lanes are built in index order
        self._schema = producer.root.output_schema
        #: queued (available_ms, batch) pairs; available_ms is monotone
        #: because the producer clock only moves forward between routings.
        self._queue: deque[tuple[float, Batch]] = deque()

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def _do_open(self) -> None:
        self._producer.start(self.context.clock.now)

    def enqueue(self, available_ms: float, batch: Batch) -> None:
        self._queue.append((available_ms, batch))

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._queue:
            return self._queue[0][0]
        if self._producer.error is not None:
            # A failed producer looks ready at the time it failed, so the
            # consumer pulls — and the pull raises; errors never surface
            # from a peek.
            return self._producer.failed_at_ms
        return None

    def _ensure_queued(self) -> bool:
        """True when this lane has data queued; False at end of stream.

        Every lane sees the same producer failure: the recorded pump error
        re-raises on each lane's pull of that input once its queue is empty,
        so per-lane collectors take their fallback path consistently — and
        never before the failure happened on the producer's clock.
        """
        if self._queue:
            return True
        producer = self._producer
        if producer.error is not None:
            self.context.clock.advance_to(producer.failed_at_ms)
            raise producer.error
        return False

    def _serve(self, max_rows: int) -> Batch:
        available, batch = self._queue.popleft()
        if len(batch) > max_rows:
            self._queue.appendleft((available, batch.slice(max_rows, len(batch))))
            batch = batch.slice(0, max_rows)
        self.context.clock.advance_to(available)
        return batch

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        if not self._ensure_queued():
            return Batch.empty(self._schema)
        if arrival_bound is None:
            return self._serve(max_rows)
        available, batch = self._queue[0]
        if available >= arrival_bound:
            return Batch.empty(self._schema)  # not end of stream: tie-break case
        take = 0
        for arrival in batch.arrivals:
            if take >= max_rows or max(arrival, available) >= arrival_bound:
                break
            take += 1
        if take == 0:
            return Batch.empty(self._schema)
        if take == len(batch):
            return self._serve(take)
        self._queue.popleft()
        self._queue.appendleft((available, batch.slice(take, len(batch))))
        self.context.clock.advance_to(available)
        return batch.slice(0, take)


class _ProducerDriver:
    """One input stream: its operator root (on a worker clock), its routing
    keys, the lane sources it feeds, and how its drain ended."""

    __slots__ = ("root", "binder", "route_cpu_ms", "sources", "started", "error", "failed_at_ms")

    def __init__(self, root: Operator, keys: Sequence[str], route_cpu_ms: float) -> None:
        self.root = root
        self.binder = KeyBinder(list(keys))
        self.route_cpu_ms = route_cpu_ms
        #: This input's :class:`ExchangeSource` in each lane, by lane index
        #: (each registers itself as its lane is built).
        self.sources: list[ExchangeSource] = []
        self.started = False
        #: The pull failure that ended the stream, and when it happened on
        #: this producer's clock (``None`` while clean).
        self.error: Exception | None = None
        self.failed_at_ms: float | None = None

    def start(self, at_ms: float) -> None:
        """Open the input at ``at_ms`` and route its whole stream (first call only).

        Pulls ramp 1 -> 4 -> 16 -> ... -> ``DEFAULT_BATCH_SIZE`` rows, as
        :meth:`QueryExecutor.steps` does, so a lane's first rows are routed
        when the source's first rows arrive, not after a full batch of them.
        A pull failure ends the stream and is recorded, not raised: it
        re-raises from every lane's :class:`ExchangeSource`, where the lane
        subtree (a collector with a fallback mirror, say) can handle it.
        """
        if self.started:
            return
        self.started = True
        root = self.root
        clock = root.context.clock
        clock.advance_to(at_ms)
        root.open()
        size = 1
        while True:
            try:
                batch = root.next_batch(size)
            except Exception as exc:
                self.error = exc
                self.failed_at_ms = clock.now
                return
            if not batch:
                return
            clock.consume_cpu(len(batch) * self.route_cpu_ms)
            self._route(batch, clock.now)
            size = min(size * 4, DEFAULT_BATCH_SIZE)

    def _route(self, batch: Batch, available_ms: float) -> None:
        """Hand each lane its share of ``batch``, available at ``available_ms``."""
        sources = self.sources
        lane_count = len(sources)
        if lane_count == 1:
            sources[0].enqueue(available_ms, batch)
            return
        keys = batch.key_tuples(self.binder.indices_in(batch.schema))
        routed: list[list[int] | None] = [None] * lane_count
        for position, key in enumerate(keys):
            # The PYTHONHASHSEED-independent hash: builtin ``hash`` randomizes
            # strings per interpreter run, and lane assignment decides every
            # laned virtual-time number.
            lane_index = stable_bucket_of(key, lane_count)
            positions = routed[lane_index]
            if positions is None:
                routed[lane_index] = [position]
            else:
                positions.append(position)
        for lane_index, positions in enumerate(routed):
            if positions is None:
                continue
            part = batch if len(positions) == len(keys) else batch.take(positions)
            sources[lane_index].enqueue(available_ms, part)


class _Lane:
    """One worker lane: its context, subtree root, and step state."""

    __slots__ = ("index", "context", "root", "steps", "next_event_ms", "finished", "output")

    def __init__(self, index: int, context: ExecutionContext) -> None:
        self.index = index
        self.context = context
        self.root: Operator | None = None
        self.steps: Iterator[float] | None = None
        self.next_event_ms = context.clock.now
        self.finished = False
        #: (produced_at_ms, batch) pairs awaiting the merge side.
        self.output: deque[tuple[float, Batch]] = deque()


class Exchange(Operator):
    """Partition / parallel-execute / merge, on the shared virtual timeline.

    ``children`` are the producer roots, each built on its own worker clock
    (the builder derives those contexts).  ``build_lane(index, lane_context,
    sources)`` constructs one lane's subtree over its :class:`ExchangeSource`
    leaves — the planner decides what runs inside a lane (a hash join, a
    deduplicating collector); the exchange only owns routing, stepping, and
    merging.  ``partition_keys[i]`` names the key columns of input ``i``; a
    row's lane is ``stable_bucket_of(canonical key values, lanes)``, identical
    across inputs so matching rows always meet in the same lane.

    The merge is a pure handoff of already-produced batches (no per-value
    work), hence ``PER_TUPLE_CPU_FACTOR = 0``: the per-tuple cost of the
    parallelized work is paid on producer and lane clocks instead.
    """

    PER_TUPLE_CPU_FACTOR = 0.0

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        producers: list[Operator],
        partition_keys: Sequence[Sequence[str]],
        lanes: int,
        build_lane: Callable[[int, ExecutionContext, list[ExchangeSource]], Operator],
        output_schema: Schema,
        estimated_cardinality: int | None = None,
    ) -> None:
        if lanes < 1:
            raise ExecutionError(f"exchange {operator_id!r} needs at least one lane, got {lanes}")
        if len(partition_keys) != len(producers):
            raise ExecutionError(
                f"exchange {operator_id!r}: {len(producers)} inputs but "
                f"{len(partition_keys)} partition key lists"
            )
        super().__init__(
            operator_id, context, children=producers, estimated_cardinality=estimated_cardinality
        )
        self.lane_count = lanes
        self._build_lane = build_lane
        self._schema = output_schema
        route_cpu_ms = context.config.per_tuple_cpu_ms * ROUTE_CPU_FACTOR
        self._producers = [
            _ProducerDriver(root, keys, route_cpu_ms)
            for root, keys in zip(producers, partition_keys)
        ]
        self._lanes: list[_Lane] | None = None
        self._drained = False

    # -- schema / introspection ----------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        return self._schema

    @property
    def lane_operators(self) -> list[Operator]:
        """The lane subtree roots (for tests and broker-invariant checks)."""
        if self._lanes is None:
            return []
        return [lane.root for lane in self._lanes if lane.root is not None]

    # -- lifecycle -----------------------------------------------------------------

    def open(self) -> None:  # noqa: D102 - overrides to defer producer opening to the lanes
        if self.state == "open":
            return
        self._do_open()
        self.state = "open"
        self._stats.state = "open"
        self.context.emit_event(EventType.OPENED, self.operator_id)

    def _do_open(self) -> None:
        lanes = [
            _Lane(index, self.context.derive_worker(f"{self.operator_id}.lane{index}"))
            for index in range(self.lane_count)
        ]
        self._lanes = lanes
        # Every lane's sources exist before any lane opens: the first open of
        # an input routes its whole stream to all of them.
        for lane in lanes:
            sources = [
                ExchangeSource(
                    f"{self.operator_id}.in{input_index}.lane{lane.index}", lane.context, driver
                )
                for input_index, driver in enumerate(self._producers)
            ]
            lane.root = self._build_lane(lane.index, lane.context, sources)
        for lane in lanes:
            lane.root.open()
            lane.steps = self._lane_steps(lane)
            lane.next_event_ms = lane.context.clock.now
        for driver in self._producers:
            if not driver.started:
                # A standby input idles at its build time until a fallback
                # starts it; left active it would hold the server frontier there.
                _leave_timeline(driver.root.context.clock)

    def _lane_steps(self, lane: _Lane) -> Iterator[float]:
        """Session-style step generator: one yield per wait or output batch.

        Mirrors the executor's fragment loop (:meth:`QueryExecutor.steps
        <repro.engine.executor.QueryExecutor.steps>`): start with a small
        batch (time-to-first-tuple), grow geometrically, and surface a wait
        event (yielding the arrival time) before any pull that would block —
        that is what the earliest-event-first merge loop schedules on.
        """
        root = lane.root
        clock = lane.context.clock
        size = 1
        while True:
            wait_until = wait_hint(root, clock)
            if wait_until is not None:
                yield wait_until
            batch = root.next_batch(size)
            if not batch:
                return
            lane.output.append((clock.now, batch))
            size = min(size * 4, DEFAULT_BATCH_SIZE)
            yield clock.now

    def _step_lane(self, lane: _Lane) -> None:
        try:
            lane.next_event_ms = next(lane.steps)
        except StopIteration:
            lane.finished = True
            lane.next_event_ms = lane.context.clock.now
        except Exception:
            # The consumer learns of a lane's failure no earlier than the
            # lane reached it.
            self.context.clock.advance_to(lane.context.clock.now)
            raise

    # -- merge side ----------------------------------------------------------------

    def _run_lanes(self) -> None:
        """Step lanes, earliest next event first, until every lane has output
        buffered or is finished.  Ties break on the lane index, so the
        interleaving is deterministic."""
        lanes = self._lanes
        while True:
            needy = [lane for lane in lanes if not lane.finished and not lane.output]
            if not needy:
                return
            self._step_lane(min(needy, key=lambda lane: (lane.next_event_ms, lane.index)))

    def _worker_makespan(self) -> float:
        clocks = [driver.root.context.clock.now for driver in self._producers]
        clocks.extend(lane.context.clock.now for lane in self._lanes)
        return max(clocks)

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        """Hand over the earliest lane's next output batch (up to ``max_rows``).

        Under an ``arrival_bound`` nothing is merged unless the exchange's
        next output (:meth:`peek_arrival`) comes before the bound.
        """
        if self._drained:
            return Batch.empty(self._schema)
        if arrival_bound is not None:
            arrival = self.peek_arrival()
            if arrival is None or arrival >= arrival_bound:
                return Batch.empty(self._schema)
        self._run_lanes()
        ready = [lane for lane in self._lanes if lane.output]
        if not ready:
            # All lanes done and drained: the exchange completes when its
            # slowest worker does.
            self._drained = True
            self.context.clock.advance_to(self._worker_makespan())
            return Batch.empty(self._schema)
        lane = min(ready, key=lambda lane: (lane.output[0][1].arrivals[0], lane.index))
        produced_at, batch = lane.output.popleft()
        if len(batch) > max_rows:
            lane.output.appendleft((produced_at, batch.slice(max_rows, len(batch))))
            batch = batch.slice(0, max_rows)
        self.context.clock.advance_to(produced_at)
        return batch.with_schema(self._schema)

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._lanes is None:
            return self.context.clock.now
        best: float | None = None
        for lane in self._lanes:
            if lane.output:
                candidate = lane.output[0][0]
            elif not lane.finished:
                candidate = lane.next_event_ms
            else:
                continue
            if best is None or candidate < best:
                best = candidate
        return best

    def _do_close(self) -> None:
        lanes = self._lanes or []
        try:
            close_all([lane.root for lane in lanes if lane.root is not None])
        finally:
            # Release every worker clock from the timeline — a stuck lane
            # clock would pin the server frontier forever.
            for driver in self._producers:
                _leave_timeline(driver.root.context.clock)
            for lane in lanes:
                _leave_timeline(lane.context.clock)
