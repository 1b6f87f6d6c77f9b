"""Choose nodes: runtime selection among precompiled alternative subplans.

Following Graefe and Ward's choose nodes, a :class:`ChooseNode` holds several
alternative children of which exactly one is executed.  The decision can be
made by a rule (the ``select_fragment`` action routed to :meth:`select`) or by
a default policy (pick the first alternative whose sources are all
responsive).
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import ExecutionError
from repro.storage.batch import Batch
from repro.storage.schema import Schema, union_schema


class ChooseNode(Operator):
    """Executes exactly one of its alternative children."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        children: list[Operator],
        estimated_cardinality: int | None = None,
    ) -> None:
        if not children:
            raise ExecutionError("choose node requires at least one alternative")
        super().__init__(
            operator_id, context, children=children, estimated_cardinality=estimated_cardinality
        )
        self._selected: Operator | None = None
        self._schema: Schema | None = None

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = union_schema([child.output_schema for child in self.children])
        return self._schema

    def open(self) -> None:  # noqa: D102 - defers opening to the selected child only
        if self.state == "open":
            return
        self.state = "open"
        self._stats.state = "open"
        from repro.plan.rules import EventType

        self.context.emit_event(EventType.OPENED, self.operator_id)

    def _default_selection(self) -> Operator:
        """Pick the first alternative none of whose sources is deactivated."""
        for child in self.children:
            blocked = any(
                self.context.is_deactivated(op_id) for op_id in _operator_ids_of(child)
            )
            if not blocked:
                return child
        return self.children[0]

    def _ensure_selected(self) -> Operator:
        if self._selected is None:
            self._selected = self._default_selection()
        if self._selected.state == "pending":
            self._selected.open()
        return self._selected

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        # Pass-through: the chosen alternative's batches (columnar or not)
        # flow on unchanged.
        selected = self._ensure_selected()
        if arrival_bound is None:
            return selected.next_batch(max_rows)
        return selected.next_batch_bounded(max_rows, arrival_bound)

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._selected is None:
            return self.context.clock.now
        return self._selected.peek_arrival()


def _operator_ids_of(operator: Operator) -> list[str]:
    """All operator ids in a runtime subtree."""
    out = [operator.operator_id]
    for child in operator.children:
        out.extend(_operator_ids_of(child))
    return out
