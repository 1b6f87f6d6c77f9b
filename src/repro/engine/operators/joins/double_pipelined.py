"""The double pipelined hash join (Section 4.2.2) with overflow resolution.

The double pipelined join (DPJ) is symmetric and incremental: each arriving
tuple probes the opposite input's hash table and is then inserted into its
own side's table, so results are produced as soon as matching tuples have
arrived from both inputs.  The original implementation is data-driven via
threads; here the join pulls from whichever child can deliver a tuple at the
earlier virtual time, which yields the same interleaving deterministically.

Two memory-overflow strategies from Section 4.2.3 are implemented:

* **Incremental Left Flush** — on overflow, flush buckets from the left
  input's hash table and switch to draining the right input; resume the left
  input once the right is exhausted.  Output stalls while the right side is
  drained, then resumes (the "abrupt" curve of Figure 4).
* **Incremental Symmetric Flush** — on overflow, pick one bucket and flush it
  from *both* hash tables; both inputs keep streaming, so output continues
  smoothly but the in-memory fraction (and hence the match rate) shrinks.

Correctness with spilling relies on a marking discipline: tuples flushed
while resident are written *unmarked*; tuples that arrive after their bucket
was flushed are written *marked* and are not probed live.  During the final
overflow resolution, every pair is emitted except unmarked-with-unmarked —
those pairs were already produced while both tuples were resident.

Both hash tables keep their rows in a column arena in every drive mode.  Under
the columnar drive the join works a *run segment* at a time — the rows of one
input's run that a tuple-at-a-time join would consume back to back probe,
insert, spill and emit in bulk, column- or row-backed alike, with no
:class:`Row` boxing — cut so that consumption and output order, batch cuts,
refusals, spill I/O and the virtual clock equal the tuple-at-a-time
interleave exactly (:meth:`DoublePipelinedJoin._consume_segment`).  The
row-batch and tuple drives feed the same tables row by row (the row-spill
baseline).
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.errors import MemoryOverflowError
from repro.plan.physical import OverflowMethod
from repro.plan.rules import EventType
from repro.storage.batch import Batch, later_stamps
from repro.storage.columns import DictColumn, as_values, extend_moving, gather, picker
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.tuples import Key, Row

#: Side identifiers (also used as indices into per-side lists).
LEFT, RIGHT = 0, 1

#: Maximum rows consumed from one input per arrival-bounded run (batch path).
RUN_LENGTH = 128

#: Virtual-time lookahead allowed when consuming a run (batch path): the
#: original engine's per-child threads buffered tuples ahead of the join, and
#: letting a run overshoot the other side's next arrival by this window models
#: that queueing while keeping consumption deterministic.
RUN_SLACK_MS = 5.0


class _Run:
    """One consumed input run: a batch, its bulk-extracted join keys (one per
    row — the key column's own values when there is one key column), and its
    arrival stamps as a plain list (run-length stamps decode once)."""

    __slots__ = ("batch", "keys", "arrivals", "cursor")

    def __init__(self, batch: Batch, keys: list[Key]) -> None:
        self.batch = batch
        self.keys = keys
        self.arrivals: list[float] = as_values(batch.arrivals)
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.keys)


class _OutputColumns:
    """Pending columnar join output: per-column accumulators plus arrivals.

    The accumulators are *adopted*, never copied into: :meth:`extend` takes
    ownership of the fresh columns an emission built, so with nothing pending
    — the state after every full hand-over — those columns simply become the
    accumulators, storage classes and all (matched strings stay codes end to
    end).  An emission that finds rows pending extends them, pointers and
    codes moving; a batch handed out is never touched again.
    """

    __slots__ = ("columns", "arrivals", "cursor")

    def __init__(self) -> None:
        self.columns: list = []
        self.arrivals: list[float] = []
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.arrivals) - self.cursor

    def extend(self, columns: list, arrivals: list[float]) -> None:
        """Take over one fresh column set (left-then-right order) and its stamps."""
        pending = self.arrivals
        if not pending:
            self.columns, self.arrivals = columns, arrivals
            return
        held = self.columns
        for j, column in enumerate(columns):
            mine = held[j]
            if type(mine) is list:
                if type(column) is list:
                    mine.extend(column)
                    continue
            elif type(column) is DictColumn and column.dictionary is mine.dictionary:
                mine.codes.extend(column.codes)
                continue
            extend_moving(held, j, column)
        pending.extend(arrivals)

    def take_batch(self, schema, max_rows: int) -> Batch:
        """Up to ``max_rows`` pending rows as a columnar batch."""
        start = self.cursor
        total = len(self.arrivals)
        stop = min(start + max_rows, total)
        if start == 0 and stop == total:
            batch = Batch.from_columns(schema, self.columns, self.arrivals)
        else:
            columns = [column[start:stop] for column in self.columns]
            batch = Batch.from_columns(schema, columns, self.arrivals[start:stop])
        if stop == total:
            self.columns, self.arrivals, self.cursor = [], [], 0
        else:
            self.cursor = stop
        return batch


class DoublePipelinedJoin(JoinOperator):
    """Symmetric, incremental hash join with pluggable overflow resolution."""

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
        overflow_method: OverflowMethod | str = OverflowMethod.LEFT_FLUSH,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, left, right, left_keys, right_keys, estimated_cardinality
        )
        self.budget: MemoryBudget = context.memory_pool.grant(operator_id, memory_limit_bytes)
        self.budget.on_revoke = self._on_lease_revoked
        self.bucket_count = bucket_count
        self.overflow_method = OverflowMethod(overflow_method)
        self._tables: list[BucketedHashTable] = []
        self._exhausted = [False, False]
        self._drain_right_first = False
        # Boxed output rows awaiting hand-over (see ``_take_pending``).
        self._pending: list[Row] = []
        self._pending_at = 0
        self._cleanup: Iterator[Row] | None = None
        self._cleanup_batches: Iterator[Batch] | None = None
        # Batch path only: per-side run buffers (rows already pulled from a
        # child in bulk), dropped as soon as their cursor reaches the end.
        self._runs: list[_Run | None] = [None, None]
        self._out: _OutputColumns | None = None
        self._popped_key: Key | None = None
        self._emitted_output = False
        self.overflow_count = 0

    # -- configuration hooks (rule actions) -------------------------------------------------

    def set_overflow_method(self, method: OverflowMethod | str) -> None:
        """Change the overflow strategy (the ``set overflow method`` rule action)."""
        self.overflow_method = OverflowMethod(method)

    # -- lifecycle -----------------------------------------------------------------------------

    def _do_open(self) -> None:
        self._tables = [
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
                (self.left_keys, "left", self.left),
                (self.right_keys, "right", self.right),
            )
        ]
        self._out = _OutputColumns()

    def _do_close(self) -> None:
        try:
            for table in self._tables:
                table.release_all()
        finally:
            # Even if releasing a table raises mid-flush, the pool lease
            # must go back so broker.used == sum(resident_bytes) holds.
            self.context.memory_pool.revoke(self.operator_id)

    # -- child selection (the data-driven behaviour) ---------------------------------------------

    def _child(self, side: int) -> Operator:
        return self.children[side]

    def _choose_side(self) -> int | None:
        """Pick which input to consume next, or ``None`` when both are done.

        Arrivals come from the run buffers first; with empty buffers — always
        the case under a pure tuple-at-a-time drive — this is the plain
        data-driven choice over the children's ``peek_arrival``.
        """
        if self._exhausted[LEFT] and self._exhausted[RIGHT]:
            return None
        if self._drain_right_first and not self._exhausted[RIGHT]:
            return RIGHT
        if self._exhausted[LEFT]:
            return RIGHT
        if self._exhausted[RIGHT]:
            return LEFT
        left_arrival = self._peek_side(LEFT)
        right_arrival = self._peek_side(RIGHT)
        if left_arrival is None:
            self._exhausted[LEFT] = True
            return RIGHT
        if right_arrival is None:
            self._exhausted[RIGHT] = True
            return LEFT
        # Prefer the input whose next tuple arrives earlier; alternate on ties
        # by favouring the side with fewer tuples consumed so far.
        if left_arrival < right_arrival:
            return LEFT
        if right_arrival < left_arrival:
            return RIGHT
        return LEFT if self._tables[LEFT].total_inserted <= self._tables[RIGHT].total_inserted else RIGHT

    def peek_arrival(self) -> float | None:
        """Earliest time this join could produce or consume its next tuple.

        With output or input rows already buffered, "now"; otherwise the
        earlier of the two inputs' next arrivals.  Side-effect free — used
        by data-driven parents and as the executor's source-wait hint, so a
        join-rooted fragment yields its network stalls to the session
        scheduler instead of sleeping through them.
        """
        if self.state in ("closed", "deactivated"):
            return None
        now = self.context.clock.now
        if self._pending or self._cleanup is not None or self._cleanup_batches is not None:
            return now
        out = self._out
        if out is not None and out.arrivals:
            return now
        if self._side_has_buffer(LEFT) or self._side_has_buffer(RIGHT):
            return now
        arrivals = [
            arrival
            for side in (LEFT, RIGHT)
            if not self._exhausted[side]
            and (arrival := self._child(side).peek_arrival()) is not None
        ]
        if not arrivals:
            return now
        return min(arrivals)

    # -- batch-path input runs -----------------------------------------------------------------------

    def _side_has_buffer(self, side: int) -> bool:
        run = self._runs[side]
        return run is not None and run.cursor < len(run)

    def _peek_side(self, side: int) -> float | None:
        """Arrival of side's next row, looking at its run buffer first."""
        run = self._runs[side]
        if run is not None and run.cursor < len(run):
            return run.arrivals[run.cursor]
        return self._child(side).peek_arrival()

    def _pop_buffered(self, side: int) -> Row | None:
        """Next already-buffered row of ``side``, or ``None`` when none is held.

        Sets :attr:`_popped_key` to the row's precomputed join key (``None``
        when nothing was buffered — the caller computes it).
        """
        run = self._runs[side]
        if run is None or run.cursor >= len(run):
            self._popped_key = None
            return None
        cursor = run.cursor
        run.cursor = cursor + 1
        self._popped_key = run.keys[cursor]
        return run.batch[cursor]

    def _pull_run(self, side: int) -> _Run | None:
        """Pull ``side``'s next run — every row arriving before the other
        side's next arrival plus :data:`RUN_SLACK_MS` — or ``None`` if empty."""
        other = 1 - side
        if self._exhausted[other] or (side == RIGHT and self._drain_right_first):
            # The other side is done, or paused by Incremental Left Flush:
            # the tuple drive consumes this side back to back regardless of
            # arrivals, so an unbounded run matches its order exactly.
            bound = float("inf")
        else:
            other_arrival = self._peek_side(other)
            if other_arrival is None:
                bound = float("inf")
            elif self._emitted_output:
                bound = other_arrival + RUN_SLACK_MS
            else:
                # The window stays closed until the first output, so time to
                # first tuple (the paper's headline DPJ metric) stays exact.
                bound = other_arrival
        run_batch = self._child(side).next_batch_bounded(RUN_LENGTH, bound)
        if not run_batch:
            return None
        return self._buffer_run(side, run_batch)

    def _buffer_run(self, side: int, run_batch: Batch) -> _Run:
        """Hold ``run_batch`` as ``side``'s run, join keys extracted in bulk.

        Under the columnar drive a row-backed run (cache-collecting and
        watched scans produce them) is transposed once, here, and only the
        columns are kept.
        """
        if self.context.columnar and not run_batch.is_columnar:
            run_batch = Batch.from_columns(
                run_batch.schema, run_batch.columns, run_batch.arrivals
            )
        binder = self._left_binder if side == LEFT else self._right_binder
        keys = run_batch.key_tuples(binder.indices_in(run_batch.schema))
        run = self._runs[side] = _Run(run_batch, keys)
        return run

    # -- tuple processing ----------------------------------------------------------------------------

    def _bucket_spilled(self, index: int) -> bool:
        return self._tables[LEFT].buckets[index].flushed or self._tables[RIGHT].buckets[index].flushed

    def _spill_arriving(self, side: int, index: int, row: Row, marked: bool = True) -> None:
        """Send an arriving tuple straight to its side's spill log.

        ``marked=True`` records that the tuple never probed live (it arrived
        after its bucket spilled), so the final resolution joins it against
        everything; a tuple that *did* probe is written unmarked so its
        already-emitted pairs are not produced again.
        """
        table = self._tables[side]
        table.spill_log.write(row, marked, table.buckets[index])
        self._charge_disk_time()

    def _process(self, side: int, row: Row, key: Key | None = None) -> None:
        """Probe, emit, and insert one arriving tuple (key may be precomputed).

        The row-at-a-time pipeline of the tuple and row-batch drives; matches
        are boxed into output rows on :attr:`_pending`.
        """
        other = 1 - side
        if key is None:
            key = self.left_key(row) if side == LEFT else self.right_key(row)
        index = bucket_of(key, self.bucket_count)
        tables = self._tables
        if tables[LEFT].buckets[index].flushed or tables[RIGHT].buckets[index].flushed:
            self._spill_arriving(side, index, row)
            return
        store = tables[other].arena
        matches = store.lookup(key) if store is not None else None
        if matches:
            self._emitted_output = True
            self._pending += self._boxed_matches(row, store, matches, side == LEFT)
        # Footnote 3 of the paper: with the opposite input exhausted there
        # is nothing left for this tuple to meet, so it is not retained.
        if self._exhausted[other]:
            return
        self._insert_with_overflow(side, row, key, index)

    def _insert_with_overflow(
        self, side: int, row: Row, key: Key, index: int
    ) -> None:
        table = self._tables[side]
        while True:
            if table.buckets[index].flushed:
                # The strategy spilled this row's own bucket.  The row has
                # already probed, so it spills unmarked — exactly like the
                # resident rows just flushed alongside it.
                self._spill_arriving(side, index, row, marked=False)
                return
            if table.insert(row, key=key):
                return
            self._resolve_overflow()

    # -- run segments (the columnar drive) -------------------------------------------------------------

    def _segment_end(self, side: int, run: _Run) -> int:
        """First position of ``run`` the tuple-accurate interleave would not
        consume right after the row at its cursor.

        After the first output a run may overshoot the other side's next
        arrival by :data:`RUN_SLACK_MS`, and :meth:`_choose_side` switches
        sides per tuple inside that window: the segment ends at the first
        row arriving at or after the other side's next tuple (a tie goes
        back to :meth:`_choose_side`, whose ``total_inserted`` rule moves
        with every insert).  The other side's peek can only grow while the
        segment is worked — it depends on nothing but the clock — so the cut
        is at worst early, never late.
        """
        other = 1 - side
        n = len(run)
        if self._exhausted[other] or (side == RIGHT and self._drain_right_first):
            return n
        bound = self._peek_side(other)
        arrivals = run.arrivals
        start = run.cursor + 1
        # A child join stamps output with the later input arrival, so a
        # run's stamps need not ascend: scan rather than bisect.
        if start >= n or max(arrivals[start:]) < bound:
            return n
        return next(i for i in range(start, n) if arrivals[i] >= bound)

    def _consume_segment(
        self, side: int, run: _Run, room: int, arrival_bound: float | None
    ) -> None:
        """Probe, emit, and insert one run segment in bulk.

        The unit of the columnar drive.  Rows of one side's run never join
        each other, so the stretch a tuple-at-a-time join would consume back
        to back can probe the opposite table in one gather and move into its
        own table in one insert.  What keeps that *exactly* equal to the
        per-tuple interleave:

        * the segment ends where the interleave would switch sides
          (:meth:`_segment_end`); after one row while a watched event is
          pending or the pull that delivered the run has carried the clock
          past a bounded caller's ``arrival_bound`` (the per-tuple loop
          re-checks both before every further tuple); and — *output
          overshoot* — at the tuple whose matches bring the caller's batch
          to ``room`` rows (``take`` names it), so later run rows stay
          unconsumed across calls exactly as they would when a revocation or
          a parent's bounded pull lands in between;
        * a memory refusal stops the insert at the refused row: matches
          probed past it are dropped, rows past it stay in the run, and the
          refused row takes the per-tuple resolve-and-retry step;
        * rows whose bucket is flushed in *either* table never probe live:
          they are split off first (``split_flushed``) and go to their own
          side's spill log marked, in one write — one gather per column, however many
          buckets they scatter over — their pages charged one at a time.
        """
        other = 1 - side
        tables = self._tables
        table = tables[side]
        keys = run.keys
        cursor = run.cursor
        bounded = arrival_bound is not None
        if self.context.batch_interrupt or (
            bounded and self.context.clock.now >= arrival_bound
        ):
            end = cursor + 1
        else:
            end = self._segment_end(side, run)
        live = spills = None
        if tables[LEFT].flushed_count or tables[RIGHT].flushed_count:
            live, spills = table.split_flushed(keys, range(cursor, end), tables[other], bounded)
            if bounded and spills:
                # Spill writes are the only thing inside a segment that moves
                # the clock, and a bounded pull's caller re-checks the clock
                # before every tuple: the segment ends at the first spilled row.
                end = cursor + len(live) + 1
        result = tables[other].gather_matches(
            keys, range(cursor, end) if live is None else live, room
        )
        if result is not None and len(result[0]) >= room:
            end = result[0][-1] + 1
            if live is not None:
                del live[bisect_left(live, end) :]
        stop = end
        if not self._exhausted[other]:
            # Footnote 3 of the paper: with the opposite input exhausted
            # there is nothing left for these tuples to meet.
            stop = table.insert_batch(run.batch, False, keys, cursor, end, live)
        if spills:
            # Settle anything already pending in one charge (as the first
            # per-tuple spill would), then this segment's own pages singly.
            self._charge_disk_time()
            table.spill_segment(run.batch.columns, run.arrivals, spills, True, stop)
            self._charge_spill_pages()
        if result is not None:
            take, match_columns, match_arrivals, _ = result
            if take[-1] > stop:
                keep = bisect_right(take, stop)
                del take[keep:], match_arrivals[keep:]
                for column in match_columns:
                    del column[keep:]
            if take:
                self._emit_matches(side, run, take, match_columns, match_arrivals)
        run.cursor = stop
        if stop < end:
            self._insert_refused(table, run, stop)
            run.cursor = stop + 1

    def _emit_matches(
        self, side: int, run: _Run, take: list[int], match_columns: list, match_arrivals: list
    ) -> None:
        """Extend the output accumulators with one segment's matches.

        ``take[i]`` is the run position match ``i`` belongs to; the run's own
        columns move as slices when every row matched exactly once (the
        foreign-key case) and as gathers otherwise, dictionary columns as
        codes either way.  Each output tuple is stamped with the later of its
        two inputs.  Every column built here is fresh — a copy of the run's, a
        gather out of the arena — and the accumulators take them over.
        """
        self._emitted_output = True
        first, n = take[0], len(take)
        if take[-1] - first + 1 == n and take == list(range(first, first + n)):
            own = [column[first : first + n] for column in run.batch.columns]
            own_arrivals = run.arrivals[first : first + n]
        else:
            pick = picker(take)
            own = [gather(column, take, pick) for column in run.batch.columns]
            own_arrivals = pick(run.arrivals)
        self._out.extend(
            own + match_columns if side == LEFT else match_columns + own,
            later_stamps(own_arrivals, match_arrivals),
        )

    def _insert_refused(self, table: BucketedHashTable, run: _Run, position: int) -> None:
        """Resolve the overflow a bulk insert stopped at, then retry the row.

        The refused row has already probed; if the strategy spills its own
        bucket it goes to disk unmarked, exactly like the resident rows
        flushed alongside it (see :meth:`_insert_with_overflow`).
        """
        key = run.keys[position]
        index = bucket_of(key, self.bucket_count)
        columns = run.batch.columns
        arrival = run.arrivals[position]
        while True:
            self._resolve_overflow()
            if table.buckets[index].flushed:
                table.spill_position(index, columns, position, arrival, marked=False)
                self._charge_disk_time()
                return
            if table.insert_position(index, key, columns, position, arrival):
                return

    def _charge_spill_pages(self) -> None:
        """Charge a bulk spill's write pages to the clock one page at a time.

        The tuple-at-a-time path charges each page as the row that fills it
        is written, and float addition is not associative: one
        ``pages * cost`` charge would leave the clock a last bit away.
        """
        disk = self.context.disk
        baseline = self._disk_baseline  # set by the charge that preceded the writes
        for _ in range(disk.stats.pages_written - baseline.pages_written - 1):
            self.context.clock.consume_io(disk.page_write_ms)
            baseline.pages_written += 1
        self._charge_disk_time()

    # -- overflow resolution -------------------------------------------------------------------------------

    def _on_lease_revoked(self, budget: MemoryBudget) -> None:
        """The broker shrank this join's lease under cross-query pressure.

        Runs the configured Section 4.2 overflow resolution until resident
        bytes fit the new allotment — the same bucket flushes to the encoded
        columnar spill path an insert-time overflow triggers, charged to
        this session's own virtual clock.  With resolution disabled
        (``OverflowMethod.FAIL``) nothing happens here: the shrunken limit
        surfaces on the victim's *own* next insert, so the failure lands in
        the right session.
        """
        if not self._tables or self.overflow_method == OverflowMethod.FAIL:
            return
        while budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            before = budget.used_bytes
            self._resolve_overflow()
            if budget.used_bytes >= before:
                # Nothing left to flush (dictionary/metadata bytes remain);
                # further pressure resolves at the next insert.
                break

    def _resolve_overflow(self) -> None:
        """Free memory according to the configured strategy."""
        self.overflow_count += 1
        self._stats.overflow_events += 1
        self.context.emit_event(EventType.OUT_OF_MEMORY, self.operator_id)
        if self.overflow_method == OverflowMethod.FAIL:
            raise MemoryOverflowError(
                f"{self.operator_id}: memory exhausted and overflow resolution disabled"
            )
        if self.overflow_method == OverflowMethod.SYMMETRIC_FLUSH:
            self._symmetric_flush()
        else:
            self._left_flush()
        self._charge_disk_time()

    def _symmetric_flush(self) -> None:
        """Flush the bucket with the most combined resident bytes from both tables."""
        left_table, right_table = self._tables
        sizes = zip(left_table.bucket_sizes(), right_table.bucket_sizes())
        combined = [
            0 if self._bucket_spilled(index)
            else left * left_table.row_bytes + right * right_table.row_bytes
            for index, (left, right) in enumerate(sizes)
        ]
        best_bytes = max(combined)
        if best_bytes <= 0:
            raise MemoryOverflowError(
                f"{self.operator_id}: no resident bucket left to flush symmetrically"
            )
        best_index = combined.index(best_bytes)  # the first of the largest
        left_table.flush_bucket(best_index)
        right_table.flush_bucket(best_index)

    def _left_flush(self) -> None:
        """Flush a left-side bucket (falling back to the right side), pause the left input."""
        self._drain_right_first = True
        flushed = self._tables[LEFT].flush_largest_bucket()
        if flushed is not None:
            return
        flushed = self._tables[RIGHT].flush_largest_bucket()
        if flushed is None:
            raise MemoryOverflowError(
                f"{self.operator_id}: both hash tables are empty yet memory is exhausted"
            )

    # -- overflow resolution output (the final phase) ---------------------------------------------------------

    def _spilled_buckets(self) -> Iterator[int]:
        """Buckets with rows on disk on either side, ascending."""
        left, right = (table.buckets for table in self._tables)
        for index in range(self.bucket_count):
            if left[index].spilled_count or right[index].spilled_count:
                yield index

    def _cleanup_batches_iter(self) -> Iterator[Batch]:
        """Join the spilled buckets positionally, one output batch per bucket.

        Skips unmarked-with-unmarked pairs (already produced live).  Spilled
        tuples are never boxed or decoded: both sides' overflow rows (spilled,
        then resident remnants — unmarked, free to read) are laid out once as
        positional stores and each bucket goes through :meth:`_join_spilled`,
        its read-back charged when it is reached, left then right.
        """
        sides = None
        for index in self._spilled_buckets():
            for table in self._tables:
                table.spill_log.charge_read(table.buckets[index])
            self._charge_disk_time()
            if sides is None:
                sides = [table.overflow_store() for table in self._tables]
            batch = self._join_spilled(*sides, index, False)
            if batch is not None:
                yield batch

    def _cleanup_pairs(self) -> Iterator[Row]:
        """Row-at-a-time overflow resolution (tuple and row-batch drives).

        Same pair discipline and identical I/O accounting as
        :meth:`_cleanup_batches_iter`, but every spilled tuple read back from
        disk is boxed into a :class:`Row` and joined tuple-at-a-time — the
        re-boxing cost that makes this the *row-spill baseline* the spill
        benchmark measures the columnar resolution against.
        """
        for index in self._spilled_buckets():
            entries = [list(table.overflow_rows(index)) for table in self._tables]
            self._charge_disk_time()
            # Resident remnants participate as unmarked entries (no read cost).
            for table, side_entries in zip(self._tables, entries):
                remnant = Batch.from_columns(table.schema, *table.bucket_rows(index))
                # repro: allow[hot-path-row] the row-spill baseline re-boxes by design
                side_entries.extend((row, False) for row in remnant.rows())
            left_entries, right_entries = entries
            right_by_key: dict[Key, list[tuple[Row, bool]]] = {}
            for row, marked in right_entries:
                right_by_key.setdefault(self.right_key(row), []).append((row, marked))
            for left_row, left_marked in left_entries:
                for right_row, right_marked in right_by_key.get(
                    self.left_key(left_row), ()
                ):
                    if not left_marked and not right_marked:
                        continue  # both were resident when they met: already emitted
                    yield self.join_rows(left_row, right_row)

    # -- iterator -------------------------------------------------------------------------------------------------

    def _take_pending(self, limit: int) -> list[Row]:
        """Up to ``limit`` boxed output rows, in order.

        Served through a cursor (a ``pop(0)`` per row is quadratic on a
        high-fan-out key); the list is cleared once drained, so a non-empty
        ``_pending`` always has rows left.
        """
        at = self._pending_at
        rows = self._pending[at : at + limit]
        if at + len(rows) == len(self._pending):
            self._pending.clear()
            self._pending_at = 0
        else:
            self._pending_at = at + len(rows)
        return rows

    def _next(self) -> Row | None:
        while True:
            if self._pending:
                return self._take_pending(1)[0]
            out = self._out
            if out is not None and len(out):
                batch = out.take_batch(self.output_schema, 1)
                return batch[0]
            if self._cleanup_batches is not None:
                # A batch caller started the columnar cleanup; keep draining it.
                batch = next(self._cleanup_batches, None)
                if batch is None:
                    return None
                # repro: allow[hot-path-row] tuple-drive caller: rows are its unit
                self._pending.extend(batch.rows())
                continue
            if self._cleanup is not None:
                row = next(self._cleanup, None)
                if row is None:
                    return None
                return row
            side = self._choose_side()
            if side is None:
                self._cleanup = self._cleanup_pairs()
                continue
            row = self._pop_buffered(side)
            key = self._popped_key
            if row is None:
                row = self._child(side).next()
            if row is None:
                self._exhausted[side] = True
                if side == RIGHT and self._drain_right_first:
                    # Right side drained: resume reading the paused left input.
                    self._drain_right_first = False
                continue
            self._process(side, row, key)

    def _next_batch(self, max_rows: int) -> Batch:
        return self._produce_batch(max_rows, None)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        # Mirrors the generic bounded fallback (whose per-pull check is
        # ``peek_arrival() < bound``, and an open join's peek is "now") while
        # keeping the run-buffer machinery engaged for this join's own inputs.
        return self._produce_batch(max_rows, arrival_bound)

    def _produce_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Batch iteration around the symmetric pipeline.

        Inputs are consumed in arrival-ordered *runs* (see
        :meth:`_pull_run`): which side to service next is still decided by
        arrival, but consecutive same-side tuples are pulled in bulk with
        their join keys extracted from the run's key columns.  Under the
        columnar drive a run is worked a segment at a time
        (:meth:`_consume_segment`), accumulating output directly into column
        lists; the row-batch drive feeds the row pipeline tuple by tuple.
        The batch is cut short when a watched event (e.g. ``out_of_memory``
        with an overflow-method rule attached) fires, so rule actions land
        at the tuple-accurate point.
        """
        context = self.context
        clock = context.clock
        schema = self.output_schema
        out = self._out
        parts: list[Batch] = []
        count = 0
        # Rows emitted into ``out`` (and leftovers on ``_pending``) count
        # toward the batch but are only sliced into an actual Batch once, on
        # the way out — draining them eagerly would shred the output into
        # per-row parts and pay a concat per column per row.
        while count + len(out) < max_rows:
            if arrival_bound is not None and clock.now >= arrival_bound:
                break
            if self._pending:
                # Boxed rows from the row pipeline or a tuple-at-a-time
                # caller on the same operator: flush any columnar output
                # first to keep order.
                if len(out):
                    part = out.take_batch(schema, max_rows - count)
                    parts.append(part)
                    count += len(part)
                    if count >= max_rows:
                        break
                rows = self._take_pending(max_rows - count)
                # repro: allow[hot-path-row] hand-over of rows that are already boxed
                parts.append(Batch.from_rows(schema, rows))
                count += len(rows)
                if context.batch_interrupt:
                    break
                continue
            if self._cleanup_batches is not None:
                batch = next(self._cleanup_batches, None)
                if batch is None:
                    break
                out.extend(batch.columns, batch.arrivals)
                continue
            if self._cleanup is not None:
                # A tuple-at-a-time caller already started the row-based
                # cleanup; keep draining it row by row.
                row = next(self._cleanup, None)
                if row is None:
                    break
                self._pending.append(row)
                continue
            side = self._choose_side()
            if side is None:
                if context.columnar:
                    self._cleanup_batches = self._cleanup_batches_iter()
                else:
                    self._cleanup = self._cleanup_pairs()
                continue
            run = self._runs[side]
            if run is None or run.cursor >= len(run):
                run = self._pull_run(side)
            if run is None:
                # The tie-break case: the next row arrives exactly at the
                # bound, so it is taken as one plain step.
                row = self._child(side).next()
                if row is None:
                    self._exhausted[side] = True
                    if side == RIGHT and self._drain_right_first:
                        # Right side drained: resume the paused left input.
                        self._drain_right_first = False
                    continue
                if context.columnar:
                    run = self._buffer_run(side, Batch.from_rows(row.schema, [row]))
                else:
                    self._process(side, row, None)
            if run is not None:
                if context.columnar:
                    self._consume_segment(
                        side, run, max_rows - count - len(out), arrival_bound
                    )
                else:
                    position = run.cursor
                    run.cursor = position + 1
                    self._process(side, run.batch[position], run.keys[position])
                if run.cursor >= len(run):
                    self._runs[side] = None
            # Cut the batch at a watched event — but only once some output is
            # actually collectable; rows sitting on ``_pending`` are moved
            # into the batch by the next loop iteration first (an empty
            # return here would read as a spurious end-of-stream).
            if context.batch_interrupt and (count or len(out)):
                break
        if len(out) and count < max_rows:
            part = out.take_batch(schema, max_rows - count)
            parts.append(part)
            count += len(part)
        if not parts:
            return Batch.empty(schema)
        if len(parts) == 1:
            return parts[0]
        return Batch.concat(schema, parts)
