"""Materialize operator: stores its input in the local store while passing it through."""

from __future__ import annotations

from repro.engine.context import MATERIALIZATION_COST_MS, ExecutionContext
from repro.engine.iterators import Operator
from repro.storage.batch import Batch
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class Materialize(Operator):
    """Writes every input row into a named local relation and passes it on.

    Fragments use this at their roots: the fragment result is both returned
    to the caller and retained for later fragments / re-optimization.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        child: Operator,
        result_name: str,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, children=[child], estimated_cardinality=estimated_cardinality
        )
        self.result_name = result_name
        self._relation: Relation | None = None

    @property
    def child(self) -> Operator:
        return self.children[0]

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        return self.child.peek_arrival()

    def _do_open(self) -> None:
        self._relation = Relation(self.result_name, self.output_schema)

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        clock = self.context.clock
        wait_before = clock.stats.wait_ms
        if arrival_bound is None:
            batch = self.child.next_batch(max_rows)
        else:
            batch = self.child.next_batch_bounded(max_rows, arrival_bound)
        if batch:
            assert self._relation is not None
            # Columnar batches are retained struct-of-arrays; rows are only
            # boxed if something later reads the relation row-wise.
            self._relation.extend_batch(batch)
            # Overlapped like the batch CPU charge in Operator.next_batch:
            # per-row materialization IO hides inside the waits between
            # arrivals.
            clock.consume_io_overlapped(
                len(batch) * MATERIALIZATION_COST_MS,
                max(0.0, clock.stats.wait_ms - wait_before),
            )
        return batch

    def _do_close(self) -> None:
        if self._relation is not None:
            self.context.local_store.materialize(self._relation)
