"""Nested loops join (and its index-free pipelined variant).

Included as a baseline and for the dependent join's bind-and-fetch pattern.
The inner (right) input is fully buffered before the outer is streamed, so it
shares the asymmetric, non-pipelined start-up behaviour the paper attributes
to conventional join algorithms.

The inner load pulls blocks through ``next_batch`` like the other blocking
operators (the hybrid hash build), so the inner child's per-tuple rule events
are only materialized when a rule actually watches them and blocks are cut at
the tuple-accurate firing points.  A bounded pull takes the outer side through
``next_batch_bounded`` so arrival bounds are honored, and matching is
vectorized while still charging the full compare-every-pair CPU cost (the
algorithm being simulated is still a nested loop; only the wall-clock
bookkeeping is bulk).
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.storage.batch import Batch, MatchCursor
from repro.storage.columns import ColumnarPartition

#: Fraction of the per-tuple CPU cost charged for one inner-row comparison
#: (charged in bulk per outer block).
COMPARE_CPU_FACTOR = 0.1


class NestedLoopsJoin(JoinOperator):
    """Buffers the inner (right) input, then streams the outer against it."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, left, right, left_keys, right_keys, estimated_cardinality
        )
        self._inner: ColumnarPartition | None = None
        self._inner_loaded = False
        #: The loaded inner's latest stamp (the stamp rule's bound).
        self._inner_latest: float | None = None
        self._pending_out: MatchCursor | None = None

    def _load_inner(self) -> None:
        """Buffer the entire inner input as a columnar partition.

        Blocks are drained at batch granularity and land in a
        :class:`ColumnarPartition` (columns + key index, insertion
        order = scan order, so per-outer-row match order equals the
        sequential scan).  Columnar blocks move as per-column extends with no
        row boxing.
        """
        right = self.right
        partition = ColumnarPartition(right.output_schema)
        binder = self._right_binder
        while True:
            block = right.next_batch(DEFAULT_BATCH_SIZE)
            if not block:
                break
            keys = block.key_tuples(binder.indices_in(block.schema))
            partition.extend_gather(
                block.columns, block.arrivals, keys, range(len(block))
            )
        self._inner = partition
        self._inner_latest = max(partition.arrivals, default=None)
        self._inner_loaded = True

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._pending_out:
            return self.context.clock.now
        if not self._inner_loaded:
            # Nothing can be produced before the inner is drained; its next
            # arrival is a (conservative) lower bound on our first output.
            # ``None`` here means an empty inner — the join produces nothing.
            return self.right.peek_arrival()
        if not self._inner or not len(self._inner):
            return None
        return self.left.peek_arrival()

    # -- batch paths -------------------------------------------------------------

    def _join_outer_batch(self, outer: Batch) -> MatchCursor | None:
        """All matches for one outer batch; ``None`` when nothing matched.

        One key pass over the partition's index; the output is gathered from
        ``outer`` and the partition (fixed once loaded) as the cursor hands
        it out — no row boxing.
        """
        partition = self._inner
        if partition is None or not len(partition):
            return None
        keys = outer.key_tuples(self._left_binder.indices_in(outer.schema))
        found = partition.probe_positions(keys)
        if found is None:
            return None
        take, at, aligned = found
        return MatchCursor(
            self.output_schema, outer, take, partition, at, aligned, self._inner_latest
        )

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        if not self._inner_loaded:
            self._load_inner()
        schema = self.output_schema
        clock = self.context.clock
        cpu_per_compare = self.context.config.per_tuple_cpu_ms * COMPARE_CPU_FACTOR
        inner_count = len(self._inner) if self._inner else 0
        while True:
            if self._pending_out is not None:
                part = self._pending_out.take(max_rows)
                if not self._pending_out:
                    self._pending_out = None
                if part:
                    return part
            wait_before = clock.stats.wait_ms
            if arrival_bound is None:
                outer = self.left.next_batch(max_rows)
            else:
                outer = self.left.next_batch_bounded(max_rows, arrival_bound)
            if not outer:
                # Unbounded: the outer is exhausted — end of stream.  Bounded:
                # possibly just the bound; the caller falls back to next_one().
                return Batch.empty(schema)
            # The simulated algorithm still compares every (outer, inner)
            # pair; charge the whole block's comparison CPU in one call,
            # overlapped with the waits accrued while the block streamed in
            # (a per-pair interleave would hide the same charges between
            # arrival waits whenever data is the bottleneck).
            if inner_count:
                clock.consume_cpu_overlapped(
                    len(outer) * inner_count * cpu_per_compare,
                    max(0.0, clock.stats.wait_ms - wait_before),
                )
            self._pending_out = self._join_outer_batch(outer)
