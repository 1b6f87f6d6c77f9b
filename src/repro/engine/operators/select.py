"""Selection operator: filters rows by a conjunction of predicates."""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import SchemaError
from repro.query.conjunctive import COMPARATORS, SelectionPredicate
from repro.storage.batch import Batch
from repro.storage.columns import DictColumn
from repro.storage.schema import Schema

#: A compiled predicate: (column index or None, comparator, constant).
CompiledPredicate = tuple[int | None, Callable[[Any, Any], bool], Any]

#: Batches between adaptive re-sorts of the compiled predicate order.
REORDER_INTERVAL_BATCHES = 16


class Select(Operator):
    """Passes through rows satisfying every predicate.

    The batch evaluator is *adaptive*: it tracks each predicate's observed
    selectivity (rows passed / rows tested) and every
    :data:`REORDER_INTERVAL_BATCHES` batches re-sorts the compiled
    conjunction most-selective-first, so cheap, highly selective predicates
    shrink the selection vector before the others run.  Conjunctions are
    commutative and predicate evaluation is side-effect free, so reordering
    never changes results — only the number of comparator calls
    (:attr:`comparator_calls`, tracked for the benchmark/test harness).
    Pass ``adaptive=False`` to pin the written order (the static baseline).

    The evaluator is also *dictionary-aware*: when a predicate's column is
    dictionary-encoded, the comparator runs **once per distinct dictionary
    entry** (results memoized in a per-dictionary mask that grows with the
    append-only dictionary) and rows filter by code lookup — on a million-row
    scan with a dozen distinct strings, a dozen comparator calls instead of
    a million.  :attr:`comparator_calls` counts real comparator invocations,
    so the saving is directly assertable.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        child: Operator,
        predicates: list[SelectionPredicate],
        estimated_cardinality: int | None = None,
        adaptive: bool = True,
    ) -> None:
        super().__init__(
            operator_id, context, children=[child], estimated_cardinality=estimated_cardinality
        )
        self.predicates = list(predicates)
        self.adaptive = adaptive
        self._compiled: list[CompiledPredicate] | None = None
        #: Per compiled predicate, [rows tested, rows passed] — observed
        #: selectivity counters, kept aligned with ``_compiled`` on re-sort.
        self._observed: list[list[int]] = []
        #: Per compiled predicate, ``id(dictionary) -> (dictionary, mask)`` —
        #: memoized comparator results over dictionary entries, kept aligned
        #: with ``_compiled`` on re-sort.  Masks extend lazily as the
        #: (append-only) dictionaries grow; the entry holds the dictionary
        #: itself so a collected dictionary's recycled ``id`` can never
        #: alias a stale mask.
        self._dict_masks: list[dict[int, tuple]] = []
        #: True when a predicate names an attribute absent from the input:
        #: the conjunction can never be satisfied.
        self._unsatisfiable = False
        self._batches_seen = 0
        self.comparator_calls = 0
        self.reorder_count = 0

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

    def _compile_predicates(self) -> list[CompiledPredicate]:
        """Bind each predicate to a column index and a raw comparator, once.

        The input schema is fixed once the child is open, so the evaluator
        binds column indices and comparator callables a single time and then
        filters whole batches with plain ``comparator(value, const)`` calls.
        An attribute is looked up qualified first, then bare; ``None`` marks
        one absent from the schema — such predicates can never be satisfied.
        """
        schema = self.child.output_schema
        compiled: list[CompiledPredicate] = []
        for predicate in self.predicates:
            index: int | None
            try:
                index = schema.index_of(f"{predicate.table}.{predicate.attr}")
            except SchemaError:
                try:
                    index = schema.index_of(predicate.attr)
                except SchemaError:
                    index = None
            compiled.append((index, COMPARATORS[predicate.op], predicate.value))
        return compiled

    def _maybe_reorder(self) -> None:
        """Re-sort the compiled conjunction by observed selectivity.

        Runs every :data:`REORDER_INTERVAL_BATCHES` filtered batches.  The
        sort key is the observed pass rate (ascending — most selective
        first); predicates not yet exercised (zero rows tested) keep a
        neutral 1.0 so they stay behind proven selective ones.  Counters
        travel with their predicates, so selectivity estimates keep
        accumulating across re-sorts.
        """
        self._batches_seen += 1
        if not self.adaptive or self._batches_seen % REORDER_INTERVAL_BATCHES:
            return
        observed = self._observed
        if len(observed) < 2:
            return
        order = sorted(
            range(len(observed)),
            key=lambda i: (observed[i][1] / observed[i][0]) if observed[i][0] else 1.0,
        )
        if order == list(range(len(order))):
            return
        self._compiled = [self._compiled[i] for i in order]
        self._observed = [observed[i] for i in order]
        self._dict_masks = [self._dict_masks[i] for i in order]
        self.reorder_count += 1

    def _dict_mask(self, position: int, column: DictColumn, comparator, constant) -> list[bool]:
        """Pass/fail per dictionary code for one predicate (memoized).

        One comparator call per *distinct* entry, ever: the mask lives as
        long as the (append-only, source-shared) dictionary and only its
        tail of new entries is evaluated on later batches.
        """
        dictionary = column.dictionary
        cache = self._dict_masks[position]
        entry = cache.get(id(dictionary))
        if entry is None or entry[0] is not dictionary:
            mask: list[bool] = []
            cache[id(dictionary)] = (dictionary, mask)
        else:
            mask = entry[1]
        values = dictionary.values
        if len(mask) < len(values):
            start = len(mask)
            self.comparator_calls += len(values) - start
            mask.extend(comparator(value, constant) for value in values[start:])
        return mask

    def _filter(self, batch: Batch) -> Batch:
        """Filter a whole batch: per-column passes, one index-take.

        Each predicate narrows a selection vector of row indices by scanning
        only its own column; the surviving indices drive a single
        :meth:`Batch.take` at the end.  A batch that passes entirely is
        returned as-is (no copies at all).  Dictionary-encoded columns
        filter by code through a memoized per-entry mask — see
        :meth:`_dict_mask` — so their comparator cost is per distinct value,
        not per row (dictionary entries are never ``None``; a column holding
        ``None`` has degraded to a plain list and takes the generic pass).
        A conjunction over an absent attribute passes nothing, so it runs no
        comparator at all.
        """
        assert self._compiled is not None
        if self._unsatisfiable:
            self._maybe_reorder()
            return Batch.empty(batch.schema)
        columns = batch.columns
        count = len(batch)
        observed = self._observed
        selected: list[int] | None = None
        for position, (index, comparator, constant) in enumerate(self._compiled):
            column = columns[index]
            tested = count if selected is None else len(selected)
            if type(column) is DictColumn:
                mask = self._dict_mask(position, column, comparator, constant)
                codes = column.codes
                if selected is None:
                    selected = [i for i in range(count) if mask[codes[i]]]
                else:
                    selected = [i for i in selected if mask[codes[i]]]
            elif selected is None:
                selected = [
                    i
                    for i in range(count)
                    if (v := column[i]) is not None and comparator(v, constant)
                ]
                self.comparator_calls += tested
            else:
                selected = [
                    i
                    for i in selected
                    if (v := column[i]) is not None and comparator(v, constant)
                ]
                self.comparator_calls += tested
            counters = observed[position]
            counters[0] += tested
            counters[1] += len(selected)
            if not selected:
                self._maybe_reorder()
                return Batch.empty(batch.schema)
        self._maybe_reorder()
        if selected is None or len(selected) == count:
            return batch
        return batch.take(selected)

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        if self._compiled is None:
            self._compiled = self._compile_predicates()
            self._unsatisfiable = any(index is None for index, _, _ in self._compiled)
            self._observed = [[0, 0] for _ in self._compiled]
            self._dict_masks = [{} for _ in self._compiled]
        child = self.child
        while True:
            if arrival_bound is None:
                batch = child.next_batch(max_rows)
            else:
                batch = child.next_batch_bounded(max_rows, arrival_bound)
            if not batch:
                return batch
            out = self._filter(batch)
            if out:
                return out
