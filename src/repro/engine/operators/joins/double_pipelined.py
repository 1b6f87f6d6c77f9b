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

Both hash tables keep their rows in a column arena, and the join works a
*run segment* at a time — the rows of one input's run that a per-tuple
interleave would consume back to back probe, insert, spill and emit in bulk,
with no :class:`Row` boxing — cut so that consumption and output order, batch
cuts, refusals, spill I/O and the virtual clock equal that interleave exactly
(:meth:`DoublePipelinedJoin._consume_segment`; the tests keep the per-tuple
pipeline as its oracle).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import or_
from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.errors import MemoryOverflowError
from repro.plan.physical import OverflowMethod
from repro.storage.batch import Batch, MatchCursor, later_stamps
from repro.storage.columns import as_run, as_values, gather, gather_into, picker
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, route_rows
from repro.storage.memory import MemoryBudget
from repro.storage.tuples import Key

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
    row — the key column's own values when there is one key column), its
    arrival stamps as a plain list (run-length stamps decode once) and, once
    either table has flushed, its bucket column (each row routed once)."""

    __slots__ = ("batch", "keys", "arrivals", "cursor", "buckets")

    def __init__(self, batch: Batch, keys: list[Key]) -> None:
        self.batch = batch
        self.keys = keys
        self.arrivals: list[float] = as_values(batch.arrivals)
        self.cursor = 0
        self.buckets: list[int] | None = None

    def __len__(self) -> int:
        return len(self.keys)


class _OutputColumns:
    """Pending columnar join output: one accumulator per output column plus arrivals.

    Every output cell is copied once, into the column that keeps it.  With
    nothing pending, the fresh columns an emission gathered *become* the
    accumulators, storage classes and all (matched strings stay codes end to
    end); with rows pending, a segment writes its matches and its own rows
    straight onto their ends (:func:`gather_into`: the storage classes
    gathering fresh and then extending would give).  :meth:`take_batch`
    keeps only the rows it does not hand out — after a segment, at most one
    key's fan-out — copying whichever side is smaller, and a batch handed
    out is never touched again.
    """

    __slots__ = ("columns", "arrivals")

    def __init__(self) -> None:
        self.columns: list = []
        self.arrivals: list[float] = []

    def __len__(self) -> int:
        return len(self.arrivals)

    def extend(self, columns: list, arrivals: list[float]) -> None:
        """Take over one fresh column set (left-then-right order) and its
        stamps, or append it to the rows pending."""
        if not self.arrivals:
            self.columns, self.arrivals = columns, arrivals
            return
        gather_into(self.columns, 0, columns)
        self.arrivals.extend(arrivals)

    def truncate(self, slots: range, before: list, length: int) -> None:
        """Cut the columns in ``slots`` back to ``length`` rows, undoing the
        tail of a write-through; ``before`` is the column list from before
        that write.  A column the write degraded was replaced, the original
        left intact, and it goes back if no written row stays."""
        columns = self.columns
        for j in slots:
            if columns[j] is not before[j] and length == len(self.arrivals):
                columns[j] = before[j]
            else:
                del columns[j][length:]

    def take_batch(self, schema, max_rows: int) -> Batch:
        """Up to ``max_rows`` pending rows as a columnar batch.

        When fewer rows stay than go, the kept tail moves to fresh
        accumulators and the old ones, cut back, are handed out; otherwise
        (a small ramp pull) the head is copied out and the tail kept."""
        columns, arrivals = self.columns, self.arrivals
        if len(arrivals) <= max_rows:
            self.columns, self.arrivals = [], []
            return Batch.from_columns(schema, columns, arrivals)
        if len(arrivals) - max_rows < max_rows:
            self.columns = [column[max_rows:] for column in columns]
            self.arrivals = arrivals[max_rows:]
            for column in columns:
                del column[max_rows:]
            del arrivals[max_rows:]
            return Batch.from_columns(schema, columns, arrivals)
        batch = Batch.from_columns(
            schema, [column[:max_rows] for column in columns], arrivals[:max_rows]
        )
        for column in columns:
            del column[:max_rows]
        del arrivals[:max_rows]
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
        #: Per side, an upper bound on the stamps its table has taken in (the stamp rule's bound).
        self._latest = [float("-inf"), float("-inf")]
        self._cleanup_cursors: Iterator[MatchCursor] | None = None
        self._cleanup_pending: MatchCursor | None = None
        # Per-side run buffers (rows already pulled from a child in bulk),
        # dropped as soon as their cursor reaches the end.
        self._runs: list[_Run | None] = [None, None]
        self._out: _OutputColumns | None = None
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
            )
            for keys, label, child in (
                (self.left_keys, "left", self.left),
                (self.right_keys, "right", self.right),
            )
        ]
        self._out = _OutputColumns()
        #: Per bucket, whether either table has flushed it, and the two tables'
        #: ``flushed_count`` it was combined at (a flush of a new bucket moves one).
        self._either_flushed = [False] * self.bucket_count
        self._combined_at = (0, 0)
        width = len(self.left.output_schema)
        #: Each side's output column slots.
        self._slots = (range(width), range(width, len(self.output_schema)))

    def _do_close(self) -> None:
        for table in self._tables:
            table.release_all()

    # -- child selection (the data-driven behaviour) ---------------------------------------------

    def _child(self, side: int) -> Operator:
        return self.children[side]

    def _choose_side(self) -> int | None:
        """Pick which input to consume next, or ``None`` when both are done.

        Arrivals come from the run buffers first; with empty buffers this is
        the plain data-driven choice over the children's ``peek_arrival``.
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
        if self._cleanup_cursors is not None:
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

    # -- input runs --------------------------------------------------------------------------------

    def _side_has_buffer(self, side: int) -> bool:
        run = self._runs[side]
        return run is not None and run.cursor < len(run)

    def _peek_side(self, side: int) -> float | None:
        """Arrival of side's next row, looking at its run buffer first."""
        run = self._runs[side]
        if run is not None and run.cursor < len(run):
            return run.arrivals[run.cursor]
        return self._child(side).peek_arrival()

    def _pull_run(self, side: int) -> _Run | None:
        """Pull ``side``'s next run — every row arriving before the other
        side's next arrival plus :data:`RUN_SLACK_MS` — or ``None`` if empty."""
        other = 1 - side
        if self._exhausted[other] or (side == RIGHT and self._drain_right_first):
            # The other side is done, or paused by Incremental Left Flush:
            # this side is consumed back to back regardless of arrivals, so
            # an unbounded run keeps the per-tuple order exactly.
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
        """Hold ``run_batch`` as ``side``'s run, join keys extracted in bulk."""
        binder = self._left_binder if side == LEFT else self._right_binder
        keys = run_batch.key_tuples(binder.indices_in(run_batch.schema))
        run = self._runs[side] = _Run(run_batch, keys)
        return run

    # -- run segments ------------------------------------------------------------------------------

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

        The join's unit of work.  Rows of one side's run never join each
        other, so the stretch a per-tuple interleave would consume back to
        back can probe the opposite table in one gather and move into its
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
          they are split off first (:func:`route_rows`, over the run's bucket
          column and the two tables' flags) and go to their own side's spill
          log marked, in one write — one gather per column, however many
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
            flushed = self._flushed_in_either()
            live, spills = route_rows(self._buckets(run), flushed, range(cursor, end), bounded)
            if bounded and spills:
                # Spill writes are the only thing inside a segment that moves
                # the clock, and a bounded pull's caller re-checks the clock
                # before every tuple: the segment ends at the first spilled row.
                end = cursor + len(live) + 1
        out = self._out
        pending = len(out)
        if pending:
            # Write-through: the matches go straight onto the rows pending.
            before = out.columns[:]
            into = (out.columns, self._slots[other].start)
        else:
            into = None
        result = tables[other].gather_matches(
            keys, range(cursor, end) if live is None else live, room, into
        )
        if result is not None and len(result[0]) >= room:
            end = result[0][-1] + 1
            if live is not None:
                live = live[: bisect_left(live, end)]
        stop = end
        if not self._exhausted[other]:
            # Footnote 3 of the paper: with the opposite input exhausted
            # there is nothing left for these tuples to meet.
            stop = table.insert_batch(run.batch, False, keys, cursor, end, live, run.buckets)
            if stop > cursor:
                self._latest[side] = max(self._latest[side], *run.arrivals[cursor:stop])
        if spills:
            # Settle anything already pending in one charge (as the first
            # per-tuple spill would), then this segment's own pages singly.
            self._charge_disk_time()
            table.spill_segment(run.batch.columns, run.arrivals, spills, run.buckets, True, stop)
            self._charge_spill_pages()
        if result is not None:
            take, match_columns, match_arrivals, _ = result
            if take[-1] > stop:
                keep = bisect_right(take, stop)
                del take[keep:], match_arrivals[keep:]
                if into is None:
                    for column in match_columns:
                        del column[keep:]
                else:
                    out.truncate(self._slots[other], before, pending + keep)
            if take:
                self._emit_matches(
                    side, run, take, None if into else match_columns, match_arrivals
                )
        run.cursor = stop
        if stop < end:
            self._insert_refused(side, run, stop)
            run.cursor = stop + 1

    def _emit_matches(
        self, side: int, run: _Run, take: list[int], match_columns, match_arrivals: list
    ) -> None:
        """Complete one segment's output with its own side's rows.

        ``take[i]`` is the run position match ``i`` belongs to; one picker
        moves the run's columns — a slice when every row matched exactly once
        (the foreign-key case), a gather otherwise — dictionary columns as
        codes.  With rows pending the matches are already written through
        (``match_columns`` is ``None``) and the run's values go straight onto the
        accumulators too; otherwise they are gathered fresh and, with the
        fresh ``match_columns``, become the accumulators.  Each output tuple
        is stamped with the later of its two inputs: its own stamp, taken
        without comparing, when the opposite table has taken in nothing later
        than the earliest of them (the :class:`MatchCursor` stamp rule).
        """
        self._emitted_output = True
        take = as_run(take)
        pick = picker(take)
        out = self._out
        stamps = pick(run.arrivals)
        if self._latest[1 - side] > min(stamps):
            stamps = later_stamps(stamps, match_arrivals)
        if match_columns is None:
            gather_into(out.columns, self._slots[side].start, run.batch.columns, pick)
            out.arrivals.extend(stamps)
            return
        own = [gather(column, take, pick) for column in run.batch.columns]
        stamps = stamps if type(stamps) is list else list(stamps)
        out.extend(own + match_columns if side == LEFT else match_columns + own, stamps)

    def _insert_refused(self, side: int, run: _Run, position: int) -> None:
        """Resolve the overflow a bulk insert stopped at, then retry the row.

        The refused row has already probed; if the strategy spills its own
        bucket it goes to disk unmarked, exactly like the resident rows
        flushed alongside it — its already-emitted pairs must not be
        produced again.
        """
        table = self._tables[side]
        key = run.keys[position]
        columns = run.batch.columns
        arrival = run.arrivals[position]
        while True:
            self._resolve_overflow()
            index = self._buckets(run)[position]
            if table.flushed[index]:
                table.spill_position(index, columns, position, arrival, marked=False)
                self._charge_disk_time()
                return
            if table.insert_position(index, key, columns, position, arrival):
                self._latest[side] = max(self._latest[side], arrival)
                return

    def _flushed_in_either(self) -> list[bool]:
        """Per bucket, whether either table has flushed it: the two flag lists
        combined again only when a table has flushed a bucket since."""
        left, right = self._tables
        counts = (left.flushed_count, right.flushed_count)
        if counts != self._combined_at:
            self._either_flushed = list(map(or_, left.flushed, right.flushed))
            self._combined_at = counts
        return self._either_flushed

    def _buckets(self, run: _Run) -> list[int]:
        """``run``'s bucket column, routed at its first need after a flush
        (both tables have the same bucket count and key arity: either routes)."""
        if run.buckets is None:
            run.buckets = self._tables[LEFT].bucket_column(run.keys)
        return run.buckets

    def _charge_spill_pages(self) -> None:
        """Charge a bulk spill's write pages to the clock one page at a time.

        A per-tuple spill charges each page as the row that fills it is
        written, and float addition is not associative: one ``pages * cost``
        charge would leave the clock a last bit away.
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
        the right session.  Like every revocation handler it never raises
        (:meth:`JoinOperator._revoke_until_fits`).
        """
        if self._tables and self.overflow_method != OverflowMethod.FAIL:
            self._revoke_until_fits(budget, self._flush_and_charge)

    def _flush_and_charge(self) -> bool:
        """One flush, its pages charged before the next starts (as an insert-time overflow's are)."""
        if not self._flush_victim():
            return False
        self._charge_disk_time()
        return True

    def _raise_out_of_memory(self) -> None:
        self.overflow_count += 1
        super()._raise_out_of_memory()

    def _resolve_overflow(self) -> None:
        """Insert-time overflow: free memory by the configured strategy, or fail the query."""
        self._raise_out_of_memory()
        if self.overflow_method == OverflowMethod.FAIL:
            raise MemoryOverflowError(
                f"{self.operator_id}: memory exhausted and overflow resolution disabled"
            )
        if not self._flush_victim():
            raise MemoryOverflowError(
                f"{self.operator_id}: memory exhausted with no resident bucket left to flush"
            )
        self._charge_disk_time()

    def _flush_victim(self) -> bool:
        """One flush by the configured strategy; false when nothing resident is left."""
        if self.overflow_method == OverflowMethod.SYMMETRIC_FLUSH:
            return self._symmetric_flush()
        return self._left_flush()

    def _symmetric_flush(self) -> bool:
        """Flush the bucket with the most combined resident bytes from both tables."""
        left_table, right_table = self._tables
        left_bytes, right_bytes = left_table.row_bytes, right_table.row_bytes
        combined = [
            0 if flushed else left * left_bytes + right * right_bytes
            for left, right, flushed in zip(
                left_table.bucket_sizes(), right_table.bucket_sizes(), self._flushed_in_either()
            )
        ]
        best_bytes = max(combined)
        if best_bytes <= 0:
            return False
        best_index = combined.index(best_bytes)  # the first of the largest
        left_table.flush_bucket(best_index)
        right_table.flush_bucket(best_index)
        return True

    def _left_flush(self) -> bool:
        """Flush a left-side bucket (falling back to the right side), pause the left input."""
        for table in self._tables:  # LEFT, then RIGHT
            if table.flush_largest_bucket() is not None:
                self._drain_right_first = True
                return True
        return False

    # -- overflow resolution output (the final phase) ---------------------------------------------------------

    def _spilled_buckets(self) -> Iterator[int]:
        """Buckets with rows on disk on either side, ascending (none before
        either table's first flush: only a flushed bucket takes spilled rows)."""
        if not any(table.flushed_count for table in self._tables):
            return
        left, right = (table.buckets for table in self._tables)
        for index in range(self.bucket_count):
            if left[index].spilled_count or right[index].spilled_count:
                yield index

    def _cleanup_cursors_iter(self) -> Iterator[MatchCursor]:
        """Join the spilled buckets positionally, one output cursor per bucket.

        Skips unmarked-with-unmarked pairs (already produced live).  Spilled
        tuples are never boxed or decoded: both sides' overflow rows (spilled,
        then resident remnants — unmarked, free to read) are laid out once as
        positional stores and each bucket goes through :meth:`_join_spilled`,
        its read-back charged when it is reached, left then right; its cursor
        is handed out a batch's room at a time.
        """
        sides = None
        for index in self._spilled_buckets():
            for table in self._tables:
                table.spill_log.charge_read(table.buckets[index])
            self._charge_disk_time()
            if sides is None:
                sides = [table.overflow_store() for table in self._tables]
            cursor = self._join_spilled(*sides, index, False)
            if cursor is not None:
                yield cursor

    # -- iterator -------------------------------------------------------------------------------------------------

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        """Batch iteration around the symmetric pipeline.

        Inputs are consumed in arrival-ordered *runs* (see
        :meth:`_pull_run`): which side to service next is still decided by
        arrival, but consecutive same-side tuples are pulled in bulk with
        their join keys extracted from the run's key columns.  A run is
        worked a segment at a time (:meth:`_consume_segment`), accumulating
        output directly into column lists.  The batch is cut short when a
        watched event (e.g. ``out_of_memory`` with an overflow-method rule
        attached) fires, so rule actions land at the tuple-accurate point.
        Under an ``arrival_bound`` the join stops once its clock reaches the
        bound: an open join's next output is available "now".
        """
        context = self.context
        clock = context.clock
        schema = self.output_schema
        out = self._out
        # Rows emitted into ``out`` count toward the batch but are only
        # sliced into an actual Batch once, on the way out — draining them
        # eagerly would shred the output into per-row parts and pay a concat
        # per column per row.
        while len(out) < max_rows:
            pending = self._cleanup_pending
            if pending is not None:
                part = pending.take(max_rows - len(out))
                if not pending:
                    self._cleanup_pending = None
                out.extend(part.columns, part.arrivals)
                continue
            if arrival_bound is not None and clock.now >= arrival_bound:
                break
            if self._cleanup_cursors is not None:
                self._cleanup_pending = next(self._cleanup_cursors, None)
                if self._cleanup_pending is None:
                    break
                continue
            side = self._choose_side()
            if side is None:
                self._cleanup_cursors = self._cleanup_cursors_iter()
                continue
            run = self._runs[side]
            if run is None or run.cursor >= len(run):
                run = self._pull_run(side)
            if run is None:
                # The tie-break case: the next row arrives exactly at the
                # bound, so it is taken as one exact step, kept as columns.
                step = self._child(side).next_one()
                if not step:
                    self._exhausted[side] = True
                    if side == RIGHT and self._drain_right_first:
                        # Right side drained: resume the paused left input.
                        self._drain_right_first = False
                    continue
                run = self._buffer_run(side, step)
            self._consume_segment(side, run, max_rows - len(out), arrival_bound)
            if run.cursor >= len(run):
                self._runs[side] = None
            # Cut the batch at a watched event — but only once some output is
            # actually collectable (an empty return here would read as a
            # spurious end-of-stream).
            if context.batch_interrupt and len(out):
                break
        if not len(out):
            return Batch.empty(schema)
        return out.take_batch(schema, max_rows)
