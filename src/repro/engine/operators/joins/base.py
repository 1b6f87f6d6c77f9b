"""Shared machinery for join operators."""

from __future__ import annotations

from itertools import compress, repeat
from operator import or_
from typing import Any, Sequence

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import PlanError
from repro.storage.batch import Batch, later_stamps
from repro.storage.columns import ColumnarPartition, gather, picker
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder, Row


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
        #: ``row -> Key`` for each side (the row-at-a-time paths).
        self.left_key, self.right_key = self._left_binder.key, self._right_binder.key

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

    def join_rows(self, left_row: Row, right_row: Row) -> Row:
        """Concatenate a matching pair in left-then-right attribute order."""
        return left_row.concat(right_row, self.output_schema)

    def _boxed_matches(
        self, row: Row, store: ColumnarPartition, positions: Sequence[int], row_first: bool = True
    ) -> list[Row]:
        """``row`` joined with ``store``'s rows at ``positions``, boxed — the
        output of every row-at-a-time path (``row`` is the left input unless
        ``row_first`` is false); each pair carries the later arrival stamp."""
        schema, values, arrival = self.output_schema, row.values, row.arrival
        arrivals = store.arrivals
        out = []
        for position in positions:
            matched, stamp = store.value_tuple(position), arrivals[position]
            out.append(
                Row.make(
                    schema,
                    values + matched if row_first else matched + values,
                    arrival if arrival >= stamp else stamp,
                )
            )
        return out

    def _join_spilled(self, left, right, index: int, unmarked_pairs: bool) -> Batch | None:
        """Join bucket ``index`` of two overflow stores (as laid out by
        :meth:`BucketedHashTable.overflow_store`); ``None`` when no pair.

        The live join's kernel over spilled rows: a key pass pairs positions
        (left-major, each side in read-back order — what a tuple-at-a-time
        pass produces), the marked-bit rule is a mask over the pair lists,
        and one shared gather per column assembles the output, dictionary
        columns moving codes.  With ``unmarked_pairs`` false a pair of two
        unmarked rows is dropped: both were resident when they met, so the
        live join already produced it.
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
        pick_left, pick_right = picker(lefts), picker(rights)
        columns = [gather(column, lefts, pick_left) for column in left_columns]
        columns += [gather(column, rights, pick_right) for column in right_columns]
        arrivals = later_stamps(pick_left(left_arrivals), pick_right(right_arrivals))
        return Batch.from_columns(self.output_schema, columns, arrivals)

    def _charge_disk_time(self) -> None:
        """Convert disk page I/O performed since the last call into virtual time."""
        disk = self.context.disk
        if not hasattr(self, "_disk_baseline"):
            self._disk_baseline = disk.stats.snapshot()
        elapsed = disk.io_time_ms(self._disk_baseline)
        if elapsed > 0:
            self.context.clock.consume_io(elapsed)
            self._disk_baseline = disk.stats.snapshot()
