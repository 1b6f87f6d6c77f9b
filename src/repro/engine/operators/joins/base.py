"""Shared machinery for join operators."""

from __future__ import annotations

from itertools import compress, repeat
from operator import or_
from typing import Any, Callable

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import PlanError
from repro.plan.rules import EventType
from repro.storage.batch import Batch, MatchCursor
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder


class JoinOperator(Operator):
    """Base class for binary equi-join operators.

    ``left_keys`` / ``right_keys`` are attribute names (qualified or base)
    resolved against the left and right child schemas respectively.
    """

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
        if len(left_keys) != len(right_keys):
            raise PlanError("join key lists must have the same length")
        if not left_keys:
            raise PlanError("equi-join requires at least one key pair")
        super().__init__(
            operator_id,
            context,
            children=[left, right],
            estimated_cardinality=estimated_cardinality,
        )
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self._schema: Schema | None = None
        self._left_binder = KeyBinder(left_keys)
        self._right_binder = KeyBinder(right_keys)

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = self.left.output_schema.join(self.right.output_schema)
        return self._schema

    def _join_spilled(self, left, right, index: int, unmarked_pairs: bool) -> MatchCursor | None:
        """Join bucket ``index`` of two overflow stores (as laid out by
        :meth:`BucketedHashTable.overflow_store`); ``None`` when no pair.

        The live join's kernel over spilled rows: a key pass pairs positions
        (left-major, each side in read-back order — what a per-tuple pass
        produces), the marked-bit rule is a mask over the pair lists, and a
        cursor over the two stores (fresh snapshots) gathers the output,
        dictionary columns moving codes.  With ``unmarked_pairs`` false a pair
        of two unmarked rows is dropped: both were resident when they met, so
        the live join already produced it.
        """
        left_columns, left_arrivals, left_marked, left_rows, left_keys = left
        right_columns, right_arrivals, right_marked, right_rows, right_keys = right
        matches: dict[Any, list[int]] = {}
        for position in right_rows.get(index, ()):
            found = matches.get(right_keys[position])
            if found is None:
                matches[right_keys[position]] = [position]
            else:
                found.append(position)
        lefts: list[int] = []
        rights: list[int] = []
        for position in left_rows.get(index, ()):
            found = matches.get(left_keys[position])
            if found:
                lefts.extend(repeat(position, len(found)))
                rights.extend(found)
        if not unmarked_pairs:
            keep = list(
                map(or_, map(left_marked.__getitem__, lefts), map(right_marked.__getitem__, rights))
            )
            lefts = list(compress(lefts, keep))
            rights = list(compress(rights, keep))
        if not lefts:
            return None
        return MatchCursor(
            self.output_schema,
            Batch(self.left.output_schema, left_columns, left_arrivals),
            lefts,
            Batch(self.right.output_schema, right_columns, right_arrivals),
            rights,
        )

    def _raise_out_of_memory(self) -> None:
        """Count one overflow resolution and raise its ``OUT_OF_MEMORY`` event."""
        self._stats.overflow_events += 1
        self.context.emit_event(EventType.OUT_OF_MEMORY, self.operator_id)

    def _revoke_until_fits(self, budget: MemoryBudget, flush: Callable[[], bool]) -> None:
        """The broker shrank this join's lease: ``flush()`` until it fits.

        The contract every revocation handler keeps: **it never raises** — it
        runs inside another session's grant.  Flush first and stop when
        ``flush()`` finds nothing resident (only dictionary/metadata bytes
        remain); those bytes surface at the victim's own next reserve.  An
        ``OUT_OF_MEMORY`` event follows each flush, never a flush that did not
        happen.  The flushes' page I/O is charged to this session's clock.
        """
        flushed = False
        while budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            if not flush():
                break
            flushed = True
            self._raise_out_of_memory()
        if flushed:
            self._charge_disk_time()

    def _charge_disk_time(self) -> None:
        """Convert disk page I/O performed since the last call into virtual time."""
        disk = self.context.disk
        if not hasattr(self, "_disk_baseline"):
            self._disk_baseline = disk.stats.snapshot()
        elapsed = disk.io_time_ms(self._disk_baseline)
        if elapsed > 0:
            self.context.clock.consume_io(elapsed)
            self._disk_baseline = disk.stats.snapshot()
