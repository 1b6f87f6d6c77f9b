"""Plain union operator (the non-adaptive baseline for the dynamic collector)."""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import ExecutionError
from repro.storage.batch import Batch
from repro.storage.schema import Schema, union_schema


class Union(Operator):
    """Concatenates its children's outputs, child by child, with no policy.

    Unlike the dynamic collector, a plain union has no mechanism for skipping
    slow mirrors, handling failures, or deduplicating overlap — it simply
    drains each child in order.  It exists both as a baseline and for plans
    where the inputs are known to be disjoint.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        children: list[Operator],
        estimated_cardinality: int | None = None,
    ) -> None:
        if not children:
            raise ExecutionError("union requires at least one child")
        super().__init__(
            operator_id, context, children=children, estimated_cardinality=estimated_cardinality
        )
        self._current = 0
        self._schema: Schema | None = None

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = union_schema([child.output_schema for child in self.children])
        return self._schema

    def peek_arrival(self) -> float | None:
        """Earliest arrival across the *remaining* children.

        The current child reporting end of stream must not read as the
        union's end of stream while later children still hold data — the
        scheduler's wait events would otherwise miss the true earliest
        arrival across branches.  Side-effect free: the cursor only moves
        when a pull actually drains the current child.
        """
        if self.state in ("closed", "deactivated"):
            return None
        for child in self.children[self._current:]:
            arrival = child.peek_arrival()
            if arrival is not None:
                return arrival
        return None

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        schema = self.output_schema
        while self._current < len(self.children):
            child = self.children[self._current]
            if arrival_bound is None:
                batch = child.next_batch(max_rows)
            else:
                batch = child.next_batch_bounded(max_rows, arrival_bound)
            if batch:
                # Re-stamp onto the union's schema so downstream operators see
                # consistent attribute names whichever child produced a row: a
                # pure schema rebind (column lists are aliased, not copied).
                return batch.with_schema(schema)
            if arrival_bound is not None and child.peek_arrival() is not None:
                return Batch.empty(schema)  # the bound, not this child's end
            self._current += 1
        return Batch.empty(schema)
