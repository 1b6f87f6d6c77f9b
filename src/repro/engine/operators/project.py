"""Projection operator: restricts rows to a list of attributes."""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.storage.batch import Batch
from repro.storage.schema import Schema


class Project(Operator):
    """Projects each input row onto the configured attribute list."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        child: Operator,
        attributes: list[str],
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, children=[child], estimated_cardinality=estimated_cardinality
        )
        self.attributes = list(attributes)
        self._schema: Schema | None = None
        self._indices: list[int] | None = None

    @property
    def child(self) -> Operator:
        return self.children[0]

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = self.child.output_schema.project(self.attributes)
        return self._schema

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        return self.child.peek_arrival()

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        if self._indices is None:
            # The input schema is fixed once the child is open; bind the
            # projected attribute positions once instead of per row.
            child_schema = self.child.output_schema
            self._indices = [child_schema.index_of(name) for name in self.attributes]
        indices = self._indices
        schema = self.output_schema
        if arrival_bound is None:
            batch = self.child.next_batch(max_rows)
        else:
            batch = self.child.next_batch_bounded(max_rows, arrival_bound)
        if not batch:
            return Batch.empty(schema)
        # Projection is pure column selection: the output batch aliases the
        # chosen column lists, copying nothing.
        return batch.select_columns(indices, schema)
