"""Nested loops join (and its index-free pipelined variant).

Included as a baseline and for the dependent join's bind-and-fetch pattern.
The inner (right) input is fully buffered before the outer is streamed, so it
shares the asymmetric, non-pipelined start-up behaviour the paper attributes
to conventional join algorithms.

The inner load pulls blocks through ``next_batch`` like the other blocking
operators (the hybrid hash build), so the inner child's per-tuple rule events
are only materialized when a rule actually watches them and blocks are cut at
the tuple-accurate firing points — the earlier implementation looped
``next()``, paying one event object per inner tuple and ignoring the block
protocol entirely.  The batch paths are native: the bounded variant pulls the
outer side through ``next_batch_bounded`` so arrival bounds are honored, and
matching is vectorized while still charging the tuple path's full
compare-every-pair CPU cost (the algorithm being simulated is still a nested
loop; only the wall-clock bookkeeping is bulk).
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.storage.batch import Batch, BatchCursor, gather_join_columns
from repro.storage.columns import ColumnarPartition
from repro.storage.tuples import Row

#: Fraction of the per-tuple CPU cost charged for one inner-row comparison.
#: Shared by the tuple path (charged per comparison) and the batch path
#: (charged in bulk per outer block) so their virtual-time totals agree.
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
        self._inner_row_cache: list[Row] | None = None
        self._inner_loaded = False
        self._current_outer: Row | None = None
        self._inner_cursor = 0
        self._pending_out: BatchCursor | None = None

    def _load_inner(self) -> None:
        """Buffer the entire inner input as a columnar partition.

        Blocks are drained at batch granularity and land in a
        :class:`ColumnarPartition` (columns + key index, insertion
        order = scan order, so per-outer-row match order equals the
        sequential scan).  Columnar blocks move as per-column extends with no
        row boxing; the tuple-at-a-time drive boxes the buffer lazily on
        first use (see :attr:`_inner_rows`).
        """
        right = self.right
        partition = ColumnarPartition(
            right.output_schema, encoded=self.context.encoded_columns
        )
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
        self._inner_loaded = True

    @property
    def _inner_rows(self) -> list[Row]:
        """The inner buffer boxed as rows (tuple-at-a-time path only; cached)."""
        if self._inner_row_cache is None:
            self._inner_row_cache = self._inner.rows() if self._inner else []
        return self._inner_row_cache

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._pending_out or self._current_outer is not None:
            return self.context.clock.now
        if not self._inner_loaded:
            # Nothing can be produced before the inner is drained; its next
            # arrival is a (conservative) lower bound on our first output.
            # ``None`` here means an empty inner — the join produces nothing.
            return self.right.peek_arrival()
        if not self._inner or not len(self._inner):
            return None
        return self.left.peek_arrival()

    def _next(self) -> Row | None:
        if not self._inner_loaded:
            self._load_inner()
        if self._pending_out is not None:
            # Output left behind by a batch caller on the same operator.
            row = self._pending_out.next_row()
            if row is not None:
                return row
            self._pending_out = None
        while True:
            if self._current_outer is None:
                self._current_outer = self.left.next()
                self._inner_cursor = 0
                if self._current_outer is None:
                    return None
            outer_key = self.left_key(self._current_outer)
            while self._inner_cursor < len(self._inner_rows):
                inner_row = self._inner_rows[self._inner_cursor]
                self._inner_cursor += 1
                # Comparing every inner tuple costs CPU even on mismatch.
                self.context.clock.consume_cpu(
                    self.context.config.per_tuple_cpu_ms * COMPARE_CPU_FACTOR
                )
                if self.right_key(inner_row) == outer_key:
                    return self.join_rows(self._current_outer, inner_row)
            self._current_outer = None

    # -- batch paths -------------------------------------------------------------

    def _join_outer_batch(self, outer: Batch) -> Batch | None:
        """All matches for one outer batch; ``None`` when nothing matched.

        Columnar outer batches assemble output from gathered partition
        columns (no row boxing); row-backed batches box each matched inner
        row at the boundary.
        """
        partition = self._inner
        if partition is None or not len(partition):
            return None
        if outer.is_columnar:
            keys = outer.key_tuples(self._left_binder.indices_in(outer.schema))
            result = partition.gather_matches(keys)
            if result is None:
                return None
            take, match_columns, match_arrivals, aligned = result
            return gather_join_columns(
                outer, take, match_columns, match_arrivals, self.output_schema, aligned
            )
        out: list[Row] = []
        for outer_row in outer.rows():
            found = partition.lookup(self.left_key(outer_row))
            out += self._boxed_matches(outer_row, partition, found)
        if not out:
            return None
        return Batch.from_rows(self.output_schema, out)

    def _batched(self, max_rows: int, arrival_bound: float | None) -> Batch:
        if not self._inner_loaded:
            self._load_inner()
        if self._current_outer is not None:
            # A tuple-at-a-time caller left an outer row mid-scan: fall back
            # to the generic per-tuple loop, which finishes it exactly.
            if arrival_bound is None:
                return super()._next_batch(max_rows)
            return super()._next_batch_bounded(max_rows, arrival_bound)
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
                # possibly just the bound; the caller falls back to next().
                return Batch.empty(schema)
            # The simulated algorithm still compares every (outer, inner)
            # pair; charge the whole block's comparison CPU in one call,
            # overlapped with the waits accrued while the block streamed in —
            # the tuple path interleaves the same charges between arrival
            # waits, hiding them whenever data is the bottleneck.
            if inner_count:
                clock.consume_cpu_overlapped(
                    len(outer) * inner_count * cpu_per_compare,
                    max(0.0, clock.stats.wait_ms - wait_before),
                )
            result = self._join_outer_batch(outer)
            if result is not None:
                self._pending_out = BatchCursor(result)

    def _next_batch(self, max_rows: int) -> Batch:
        return self._batched(max_rows, None)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        return self._batched(max_rows, arrival_bound)
