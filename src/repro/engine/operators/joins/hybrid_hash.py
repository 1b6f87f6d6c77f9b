"""Hybrid hash join: the conventional baseline join (Section 4.2.1).

The inner (right) relation is built into a hash table; the outer (left)
relation then probes it.  When the build exceeds the operator's memory
allotment, buckets are lazily flushed to disk (hybrid hashing); probe tuples
that hash to a flushed bucket are spilled to the outer input's own table —
one that never holds a resident row, only its spill log and per-bucket
ledgers — and the overflow pairs are joined in a final pass.

The hash table keeps its rows in a column arena: builds append column slices
from batch columns; a probe is a key pass that returns match *positions*
(``probe_positions``), and its output is gathered from the outer batch and
the arena a piece at a time, as a :class:`~repro.storage.batch.MatchCursor`
hands it out — each output cell copied once, stamped from the outer side
without a comparison when the build finished first; the outer tuples of
flushed buckets spill as one column gather per probe batch, and the final
overflow pass joins the two spill logs positionally through the kernel it
shares with the double pipelined join's cleanup — no :class:`Row` objects
anywhere on those paths.

Because the build phase must consume the *entire* inner input before the
first output tuple, this operator exhibits exactly the delayed
time-to-first-tuple the paper contrasts with the double pipelined join.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.storage.batch import Batch, MatchCursor
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, route_rows
from repro.storage.memory import MemoryBudget


class HybridHashJoin(JoinOperator):
    """Classic hybrid hash join with lazy bucket overflow."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        memory_limit_bytes: int | None = None,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, left, right, left_keys, right_keys, estimated_cardinality
        )
        self.budget: MemoryBudget = context.memory_pool.grant(operator_id, memory_limit_bytes)
        self.budget.on_revoke = self._on_lease_revoked
        self.bucket_count = bucket_count
        self._inner_table: BucketedHashTable | None = None
        self._outer_table: BucketedHashTable | None = None
        self._built = False
        #: The arena's latest stamp once the build is done (the stamp rule's bound).
        self._build_latest: float | None = None
        self._pending_out: MatchCursor | None = None
        self._overflow_cursors: Iterator[MatchCursor] | None = None

    # -- build phase --------------------------------------------------------------------

    def _do_open(self) -> None:
        self._inner_table, self._outer_table = (
            BucketedHashTable(
                keys,
                self.budget,
                self.context.disk,
                bucket_count=self.bucket_count,
                name=f"{self.operator_id}-{label}",
                schema=child.output_schema,
            )
            for keys, label, child in (
                (self.right_keys, "inner", self.right),
                (self.left_keys, "outer", self.left),
            )
        )

    def _build(self) -> None:
        """Drain the inner input into the hash table: bulk columnar inserts
        with per-row overflow recovery.

        ``insert_batch`` moves whole batches (one key pass, one ``extend`` per
        column) while memory lasts and stops at exactly the row that does not
        fit; the refused suffix is retried after flushing the largest bucket,
        so every overflow event lands on the row that caused it.  A batch that
        meets a flushed table is routed once: every retry re-splits its suffix
        from the same bucket column against the flags as the flush left them.
        """
        assert self._inner_table is not None
        table = self._inner_table
        right = self.right
        while True:
            batch = right.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                break
            keys = batch.key_tuples(self._right_binder.indices_in(batch.schema))
            buckets = table.bucket_column(keys) if table.flushed_count else None
            position = 0
            n = len(batch)
            while position < n:
                position = table.insert_batch(batch, keys=keys, start=position, buckets=buckets)
                if position < n:
                    # Memory pressure: flush the largest bucket and retry the
                    # refused suffix (rows whose bucket got flushed spill on
                    # the retry).
                    self._raise_out_of_memory()
                    victim = table.flush_largest_bucket()
                    if buckets is None:
                        buckets = table.bucket_column(keys)
                    if victim is None:
                        # Nothing resident to flush: the refused row gets one
                        # plain per-row insert; if the budget still refuses
                        # (the dictionaries hold it), its empty bucket is
                        # flushed and the row spills, so no build row is lost.
                        key = keys[position]
                        index = buckets[position]
                        arrival = batch.arrivals[position]
                        if not table.flushed[index] and not table.insert_position(
                            index, key, batch.columns, position, arrival
                        ):
                            table.flush_bucket(index)
                        if table.flushed[index]:
                            table.spill_position(
                                index, batch.columns, position, arrival, marked=False
                            )
                        position += 1
        self._charge_disk_time()
        if table.arena is not None:
            self._build_latest = max(table.arena.arrivals, default=None)
        self._built = True

    def _on_lease_revoked(self, budget: MemoryBudget) -> None:
        """Broker revocation: lazily flush buckets until the new lease fits.

        Mid-build this is exactly the insert-time overflow path (flush the
        largest bucket); mid-probe it is still safe — probe tuples hashing
        to a freshly flushed bucket spill to the outer overflow files and
        join in the final pass, the standard hybrid-hash discipline.  A
        batch's matches are fixed when it probes: the rows still pending are
        gathered out of the arena before a flush moves it.
        """
        table = self._inner_table
        if table is not None:
            if self._pending_out is not None:
                self._pending_out.settle()
            self._revoke_until_fits(budget, lambda: table.flush_largest_bucket() is not None)

    # -- probe phase --------------------------------------------------------------------------

    def _overflow_pair_cursors(self) -> Iterator[MatchCursor]:
        """Columnar overflow pass: joins the two spill logs positionally, one
        cursor per bucket, each side's read-back charged as it is reached."""
        tables = (self._outer_table, self._inner_table)
        sides = None
        for bucket_index in self._inner_table.flushed_buckets:
            if not self._outer_table.buckets[bucket_index].spilled_count:
                continue
            for table in reversed(tables):
                table.spill_log.charge_read(table.buckets[bucket_index])
                self._charge_disk_time()
            if sides is None:
                sides = [table.overflow_store() for table in tables]
            cursor = self._join_spilled(*sides, bucket_index, True)
            if cursor is not None:
                yield cursor

    # -- iterator ----------------------------------------------------------------------------------

    def _probe_outer_batch(self, outer: Batch) -> MatchCursor | None:
        """Probe one outer batch in bulk; ``None`` when nothing matched.

        The probe keys are the key column itself (its values as a list; one
        ``zip`` over the key columns for a composite key), outer tuples of
        flushed buckets are spilled as one column gather, and the key pass
        returns match positions — against a primary-key build one C-level
        ``map`` over the inner table's index.  The output is left to a
        :class:`MatchCursor`, which gathers it from ``outer`` and the arena
        as it is handed out; no :class:`Row` is constructed and no per-tuple
        spill write made.
        """
        assert self._inner_table is not None
        table = self._inner_table
        keys = outer.key_tuples(self._left_binder.indices_in(outer.schema))
        positions = None
        if table.flushed_count:
            buckets = table.bucket_column(keys)
            positions, spills = route_rows(buckets, table.flushed, range(len(keys)))
            if spills:
                self._outer_table.spill_segment(
                    outer.columns, outer.arrivals, spills, buckets, False
                )
                self._charge_disk_time()
        found = table.probe_positions(keys, positions)
        if found is None:
            return None
        take, at, aligned = found
        return MatchCursor(
            self.output_schema, outer, take, table.arena, at, aligned, self._build_latest
        )

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        """Build on the first pull, then probe outer batches and finish with
        the overflow pass.

        Under an ``arrival_bound`` the join stops once its clock reaches the
        bound (its next output cannot come earlier), pulls the outer side
        bounded, and leaves the overflow pass to an unbounded pull — an empty
        bounded outer batch does not tell the bound from the end of stream.
        """
        if not self._built:
            self._build()
        context = self.context
        clock = context.clock
        schema = self.output_schema
        parts: list[Batch] = []
        count = 0
        while count < max_rows:
            if self._pending_out is not None:
                part = self._pending_out.take(max_rows - count)
                if not self._pending_out:
                    self._pending_out = None
                if part:
                    parts.append(part)
                    count += len(part)
                continue
            if arrival_bound is not None and clock.now >= arrival_bound:
                break
            if self._overflow_cursors is not None:
                self._pending_out = next(self._overflow_cursors, None)
                if self._pending_out is None:
                    break
                continue
            if arrival_bound is None:
                outer = self.left.next_batch(max_rows)
            else:
                outer = self.left.next_batch_bounded(max_rows, arrival_bound)
            if not outer:
                if arrival_bound is not None:
                    break
                self._overflow_cursors = self._overflow_pair_cursors()
                continue
            self._pending_out = self._probe_outer_batch(outer)
            if context.batch_interrupt and count:
                break
        return Batch.concat(schema, parts)

    def _do_close(self) -> None:
        if self._inner_table is not None:
            self._inner_table.release_all()
