"""Hybrid hash join: the conventional baseline join (Section 4.2.1).

The inner (right) relation is built into a hash table; the outer (left)
relation then probes it.  When the build exceeds the operator's memory
allotment, buckets are lazily flushed to disk (hybrid hashing); probe tuples
that hash to a flushed bucket are spilled to the outer input's own table —
one that never holds a resident row, only its spill log and per-bucket
ledgers — and the overflow pairs are joined in a final pass.

The hash table keeps its rows in a column arena in every drive mode; what changes
with the drive is how data reaches and leaves it.  Under the columnar drive
builds append column slices from batch columns, probes return gathered match
columns, the outer tuples of flushed buckets spill as one column gather per
probe batch, and the final overflow pass joins the two spill logs positionally
through the kernel it shares with the double pipelined join's cleanup — no
:class:`Row` objects anywhere on those paths.  Under the row-batch and tuple
drives the same machinery is fed row by row (boxing at the boundary), which
is the row-spill baseline the spill benchmark measures against.

Because the build phase must consume the *entire* inner input before the
first output tuple, this operator exhibits exactly the delayed
time-to-first-tuple the paper contrasts with the double pipelined join.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.plan.rules import EventType
from repro.storage.batch import Batch, BatchCursor, gather_join_columns
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.tuples import Key, Row


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
        self._probe_matches: list[Row] = []
        self._pending_out: BatchCursor | None = None
        self._overflow_output: Iterator[Row] | None = None
        self._overflow_batches: Iterator[Batch] | None = None

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
                encoded=self.context.encoded_columns,
            )
            for keys, label, child in (
                (self.right_keys, "inner", self.right),
                (self.left_keys, "outer", self.left),
            )
        )

    def _build_inner(self) -> None:
        assert self._inner_table is not None
        while True:
            row = self.right.next()
            if row is None:
                break
            key = self.right_key(row)
            inserted = self._inner_table.insert(row, key=key)
            if not inserted and not self._inner_table.bucket_for_key(key).flushed:
                # Memory pressure: lazily flush the largest bucket and retry;
                # if the row's own bucket got flushed the retry spills it.
                self._raise_out_of_memory()
                self._inner_table.flush_largest_bucket()
                self._inner_table.insert(row)
        self._charge_disk_time()
        self._built = True

    def _build_inner_batched(self) -> None:
        """Batch-at-a-time build: bulk columnar inserts with the tuple path's
        overflow recovery.

        ``insert_batch`` moves whole batches (one key pass, one ``extend`` per
        column) while memory lasts and stops at exactly the row where the
        tuple-at-a-time build would have overflowed; the refused suffix is
        retried after flushing the largest bucket, so overflow events and
        bucket states match the tuple drive one for one.
        """
        assert self._inner_table is not None
        table = self._inner_table
        right = self.right
        while True:
            batch = right.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                break
            keys = batch.key_tuples(self._right_binder.indices_in(batch.schema))
            position = 0
            n = len(batch)
            while position < n:
                position = table.insert_batch(batch, keys=keys, start=position)
                if position < n:
                    # Memory pressure: flush the largest bucket and retry the
                    # refused suffix (rows whose bucket got flushed spill on
                    # the retry, as in the tuple path).
                    self._raise_out_of_memory()
                    if table.flush_largest_bucket() is None:
                        # Nothing resident to flush; the tuple path's single
                        # retry gives up on such a row, so take one plain
                        # per-row step and move on.
                        key = keys[position]
                        index = bucket_of(key, table.bucket_count)
                        if table.buckets[index].flushed:
                            table.spill_position(
                                index,
                                batch.columns,
                                position,
                                batch.arrivals[position],
                                marked=False,
                            )
                        else:
                            table.insert_position(
                                index,
                                key,
                                batch.columns,
                                position,
                                batch.arrivals[position],
                            )
                        position += 1
        self._charge_disk_time()
        self._built = True

    def _raise_out_of_memory(self) -> None:
        self._stats.overflow_events += 1
        self.context.emit_event(EventType.OUT_OF_MEMORY, self.operator_id)

    def _on_lease_revoked(self, budget: MemoryBudget) -> None:
        """Broker revocation: lazily flush buckets until the new lease fits.

        Mid-build this is exactly the insert-time overflow path (flush the
        largest bucket); mid-probe it is still safe — probe tuples hashing
        to a freshly flushed bucket spill to the outer overflow files and
        join in the final pass, the standard hybrid-hash discipline.
        """
        table = self._inner_table
        if table is None:
            return
        flushed_any = False
        while budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            # Flush first: a revocation that finds nothing resident (only
            # dictionary/metadata bytes remain) must not emit OUT_OF_MEMORY
            # events that no resolution follows.
            if table.flush_largest_bucket() is None:
                break
            flushed_any = True
            self._raise_out_of_memory()
        if flushed_any:
            self._charge_disk_time()

    # -- probe phase --------------------------------------------------------------------------

    def _probe_one(self, outer_row: Row) -> list[Row]:
        assert self._inner_table is not None
        key = self.left_key(outer_row)
        if self._inner_table.bucket_for_key(key).flushed:
            outer = self._outer_table
            outer.spill_log.write(outer_row, False, outer.bucket_for_key(key))
            self._charge_disk_time()
            return []
        matched = self._inner_table.match_positions(key)
        return self._boxed_matches(outer_row, *matched) if matched is not None else []

    def _overflow_pairs(self) -> Iterator[Row]:
        """Row-at-a-time overflow pass: joins spilled pairs, boxing each tuple.

        Serves the tuple and row-batch drives; the columnar drive uses
        :meth:`_overflow_pair_batches` instead and never boxes spilled rows.
        """
        assert self._inner_table is not None
        outer = self._outer_table
        for bucket_index in self._inner_table.flushed_buckets:
            if not outer.buckets[bucket_index].spilled_count:
                continue
            # Reload the inner bucket (charging read I/O) into a transient map.
            inner_by_key: dict[Key, list[Row]] = {}
            for inner_row, _ in self._inner_table.overflow_rows(bucket_index):
                inner_by_key.setdefault(self.right_key(inner_row), []).append(inner_row)
            self._charge_disk_time()
            for outer_row, _ in outer.overflow_rows(bucket_index):
                for inner_row in inner_by_key.get(self.left_key(outer_row), ()):
                    yield self.join_rows(outer_row, inner_row)
            self._charge_disk_time()

    def _overflow_pair_batches(self) -> Iterator[Batch]:
        """Columnar overflow pass: joins the two spill logs positionally, one
        batch per bucket, each side's read-back charged as it is reached."""
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
            batch = self._join_spilled(*sides, bucket_index, True)
            if batch is not None:
                yield batch

    # -- iterator ----------------------------------------------------------------------------------

    def _next(self) -> Row | None:
        if not self._built:
            self._build_inner()
        while True:
            if self._pending_out is not None:
                row = self._pending_out.next_row()
                if row is not None:
                    return row
                self._pending_out = None
            if self._probe_matches:
                return self._probe_matches.pop()
            if self._overflow_batches is not None:
                # A batch caller already started the columnar overflow pass;
                # keep draining it (restarting the row pass would re-read the
                # spill files and duplicate the already-emitted pairs).
                batch = next(self._overflow_batches, None)
                if batch is None:
                    return None
                self._pending_out = BatchCursor(batch)
                continue
            if self._overflow_output is not None:
                return next(self._overflow_output, None)
            outer_row = self.left.next()
            if outer_row is None:
                self._overflow_output = self._overflow_pairs()
                continue
            self._probe_matches = self._probe_one(outer_row)

    def _probe_outer_batch(self, outer: Batch) -> Batch | None:
        """Probe one outer batch in bulk; ``None`` when nothing matched.

        On the columnar path the probe keys are the key column itself (its
        values as a list; one ``zip`` over the key columns for a composite
        key), outer tuples of flushed buckets are spilled as one column
        gather, and the output batch is assembled from gathered match columns
        — against a primary-key build the whole key pass is one C-level
        ``map`` over the inner table's index — with no :class:`Row`
        construction and no per-tuple spill writes.  Row-backed outer batches
        take the per-row path.
        """
        assert self._inner_table is not None
        table = self._inner_table
        if not outer.is_columnar:
            matches: list[Row] = []
            # repro: allow[hot-path-row] row-backed outer batch: the declared tuple-path branch
            for outer_row in outer.rows():
                matches.extend(self._probe_one(outer_row))
            if not matches:
                return None
            return Batch.from_rows(self.output_schema, matches)
        keys = outer.key_tuples(self._left_binder.indices_in(outer.schema))
        positions: list[int] | None = None
        if table.flushed_count:
            positions, spills = table.split_flushed(keys, range(len(keys)))
            if spills:
                self._outer_table.spill_segment(outer.columns, outer.arrivals, spills, False)
                self._charge_disk_time()
        result = table.gather_matches(keys, positions)
        if result is None:
            return None
        take, match_columns, match_arrivals, aligned = result
        return gather_join_columns(
            outer, take, match_columns, match_arrivals, self.output_schema, aligned
        )

    def _next_batch(self, max_rows: int) -> Batch:
        if not self._built:
            self._build_inner_batched()
        context = self.context
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
            if self._probe_matches:
                # Leftovers from a tuple-at-a-time caller on the same operator.
                needed = max_rows - count
                rows = self._probe_matches[:needed]
                del self._probe_matches[:needed]
                parts.append(Batch.from_rows(schema, rows))
                count += len(rows)
                continue
            if self._overflow_batches is not None:
                batch = next(self._overflow_batches, None)
                if batch is None:
                    break
                self._pending_out = BatchCursor(batch)
                continue
            if self._overflow_output is not None:
                rows = []
                needed = max_rows - count
                for row in self._overflow_output:
                    rows.append(row)
                    if len(rows) >= needed:
                        break
                if not rows:
                    break
                parts.append(Batch.from_rows(schema, rows))
                count += len(rows)
                continue
            outer = self.left.next_batch(max_rows)
            if not outer:
                if context.columnar:
                    self._overflow_batches = self._overflow_pair_batches()
                else:
                    self._overflow_output = self._overflow_pairs()
                continue
            result = self._probe_outer_batch(outer)
            if result is not None:
                self._pending_out = BatchCursor(result)
            if context.batch_interrupt and count:
                break
        return Batch.concat(schema, parts)

    def _do_close(self) -> None:
        try:
            if self._inner_table is not None:
                self._inner_table.release_all()
        finally:
            # Even if releasing the table raises mid-flush, the pool lease
            # must go back so broker.used == sum(resident_bytes) holds.
            self.context.memory_pool.revoke(self.operator_id)
