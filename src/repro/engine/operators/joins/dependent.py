"""Dependent join: bind-and-fetch over a source with limited query capability.

Some sources can only be queried with bindings (for example a web form that
requires an ISBN).  The dependent join streams its left input and, for each
left tuple, issues a parameterized fetch to the right-hand source for the
matching tuples.  Each probe pays the source's access latency, which is what
makes dependent joins expensive over high-latency links and why the optimizer
only uses them when the source demands bindings.

Two layers of caching (the paper's §8 "caching of source data" extension)
keep duplicate work off the network:

* A **per-query probe memo** remembers the answer to every bind key already
  probed, so duplicate left keys pay the source round-trip exactly once.
  Hits are counted on the operator (``cache_hits``) and in the runtime
  stats (``cache_hits`` on the operator's stats record).
* When the execution context carries a
  :class:`~repro.network.cache.SourceCache` holding this source's full
  extent (a prior scan read it to completion), *all* probes are served at
  local CPU speed — no per-probe network latency at all.
"""

from __future__ import annotations

from typing import Any

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import ExecutionError
from repro.network.cache import CACHE_SERVE_CPU_MS
from repro.storage.batch import Batch, BatchCursor, gather_join_columns
from repro.storage.columns import build_columns, make_dictionaries
from repro.storage.schema import Schema
from repro.storage.tuples import Key, KeyBinder, Row


class DependentJoin(Operator):
    """Bind-join between a streaming left input and a lookup source."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        left: Operator,
        source_name: str,
        left_keys: list[str],
        right_keys: list[str],
        estimated_cardinality: int | None = None,
        probe_cache: bool = True,
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ExecutionError("dependent join key lists must have the same length")
        super().__init__(
            operator_id, context, children=[left], estimated_cardinality=estimated_cardinality
        )
        self.source_name = source_name
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self._source = context.catalog.source(source_name)
        self._right_schema = self._source.exported_schema
        self._schema: Schema | None = None
        self._index: dict[Key, list[Row]] | None = None
        self._pending: list[Row] = []
        self._pending_out: BatchCursor | None = None
        self._left_binder = KeyBinder(left_keys)
        self._right_binder = KeyBinder(right_keys)
        self._memo: dict[Key, list[Row]] | None = {} if probe_cache else None
        #: Per-key transposed match columns ``(columns, arrivals)``, so the
        #: columnar probe path assembles output with per-column extends and a
        #: duplicate bind key never pays the row->column transpose twice.
        #: The column lists alias the same value objects the memo's rows
        #: hold (Python containers store references), so the overhead is the
        #: per-value pointer, not a second copy of the payload.
        self._match_columns: dict[Key, tuple[list, list[float]]] = {}
        self._cache_dictionaries = None
        self._cached_extent = False
        #: Speculative source layer: keep checking for the extent to appear
        #: mid-run (another session's stream completing upgrades the
        #: remaining probes to local serving).
        self._speculative = (
            context.config.speculative_sources and context.source_cache is not None
        )
        self.probes = 0
        self.cache_hits = 0

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = self.left.output_schema.join(self._right_schema)
        return self._schema

    def _do_open(self) -> None:
        cache = self.context.source_cache
        if cache is not None:
            entry = cache.lookup(
                self.source_name, self.context.clock.now, session=self.context.session_id
            )
            if entry is not None and len(entry.schema) == len(self._right_schema):
                self._adopt_entry(entry)

    def _adopt_entry(self, entry) -> None:
        """Build the probe index from a cached full extent; serve locally."""
        index: dict[Key, list[Row]] = {}
        binder = self._right_binder
        make = Row.make
        for row in entry.rows:
            # Re-stamp to arrival 0 so join outputs carry the left
            # row's arrival, exactly as with source-side lookups.
            local = make(entry.schema, row.values, 0.0)
            index.setdefault(binder.key(local), []).append(local)
        self._index = index
        self._cached_extent = True

    def _try_adopt_cached_extent(self) -> None:
        """Mid-run upgrade: adopt the extent if it became visible since open.

        Under the speculative source layer another session's stream can
        complete while this join is mid-probe; from that (virtual) moment the
        remaining probes are in-memory lookups.  Probing a *partial* extent
        is deliberately not attempted — a probe must return all matches, and
        a prefix cannot prove completeness for any key.
        """
        cache = self.context.source_cache
        now = self.context.clock.now
        entry = cache.peek(self.source_name, now, self.context.session_id)
        if entry is None or len(entry.schema) != len(self._right_schema):
            return
        # One real lookup so hit accounting matches the open-time path.
        entry = cache.lookup(self.source_name, now, session=self.context.session_id)
        if entry is not None:
            self._adopt_entry(entry)

    def _build_index(self) -> None:
        """Index the source contents by the bound key (kept at the source side)."""
        index: dict[Key, list[Row]] = {}
        for row in self._source.relation.qualified():
            index.setdefault(self._right_binder.key(row), []).append(row)
        self._index = index

    def _probe_source(self, key: Key) -> list[Row]:
        """One parameterized fetch; memoized so duplicate keys pay latency once."""
        if self._speculative and not self._cached_extent:
            self._try_adopt_cached_extent()
        if self._index is None:
            self._build_index()
        memo = self._memo
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                self.cache_hits += 1
                self._stats.cache_hits += 1
                self.context.clock.consume_cpu(CACHE_SERVE_CPU_MS * (1 + len(hit)))
                return hit
        self.probes += 1
        matches = self._index.get(key, []) if self._index else []
        if self._cached_extent:
            # Full extent cached locally: a probe is an in-memory lookup.
            self.context.clock.consume_cpu(CACHE_SERVE_CPU_MS * (1 + len(matches)))
        else:
            profile = self._source.profile
            transfer = sum(profile.transfer_ms(row.size_bytes) for row in matches)
            self.context.clock.consume_cpu(0.0)  # explicit: probe CPU is negligible
            self.context.clock.advance_to(
                self.context.clock.now + profile.initial_latency_ms + transfer
            )
        if memo is not None:
            memo[key] = matches
        return matches

    def _next(self) -> Row | None:
        if self._pending_out is not None:
            # Output left behind by a batch caller on the same operator.
            row = self._pending_out.next_row()
            if row is not None:
                return row
            self._pending_out = None
        while True:
            if self._pending:
                return self._pending.pop(0)
            left_row = self.left.next()
            if left_row is None:
                return None
            for match in self._probe_source(self._left_binder.key(left_row)):
                self._pending.append(left_row.concat(match, self.output_schema))

    def _probe_source_columns(self, key: Key) -> tuple[list, list[float]]:
        """One probe's matches as transposed ``(columns, arrivals)``.

        Wraps :meth:`_probe_source` (which owns all clock accounting and the
        probe memo) and — only while the probe memo is enabled — caches the
        transposed column view per bind key, so repeated keys feed the
        columnar output assembly without re-transposing the same match rows.
        With ``probe_cache=False`` nothing is retained, honouring the
        no-caching opt-out.
        """
        matches = self._probe_source(key)
        if self._memo is None:
            width = len(self._right_schema)
            return (
                [[row.values[j] for row in matches] for j in range(width)],
                [row.arrival for row in matches],
            )
        cached = self._match_columns.get(key)
        if cached is None:
            # Cached entries live for the whole probe phase, so they store
            # plain/encoded columns (dict codes for strings when encoding is
            # on) — the same footprint discipline the hash tables apply.
            if self._cache_dictionaries is None and self.context.encoded_columns:
                self._cache_dictionaries = make_dictionaries(self._right_schema)
            cached = (
                build_columns(
                    self._right_schema,
                    [[row.values[j] for row in matches] for j in range(len(self._right_schema))],
                    self.context.encoded_columns,
                    self._cache_dictionaries,
                ),
                [row.arrival for row in matches],
            )
            self._match_columns[key] = cached
        return cached

    def _probe_left_batch(self, left_batch: Batch) -> Batch | None:
        """All matches for one left batch; ``None`` when nothing matched.

        Keys come from the batch's key columns when it is columnar; the
        probes themselves stay per-key (each is a parameterized source fetch,
        memo-deduplicated), and the output batch is assembled from cached
        per-key match columns with one gather per column.
        """
        if left_batch.is_columnar:
            keys = left_batch.key_tuples(self._left_binder.indices_in(left_batch.schema))
            width = len(self._right_schema)
            take: list[int] = []
            match_columns: list[list[Any]] = [[] for _ in range(width)]
            match_arrivals: list[float] = []
            aligned = True
            for position, key in enumerate(keys):
                columns, arrivals = self._probe_source_columns(key)
                found = len(arrivals)
                if not found:
                    aligned = False
                    continue
                if found == 1:
                    take.append(position)
                else:
                    aligned = False
                    take.extend([position] * found)
                for acc, column in zip(match_columns, columns):
                    acc.extend(column)
                match_arrivals.extend(arrivals)
            if not take:
                return None
            return gather_join_columns(
                left_batch,
                take,
                match_columns,
                match_arrivals,
                self.output_schema,
                aligned,
            )
        out: list[Row] = []
        schema = self.output_schema
        binder = self._left_binder
        for left_row in left_batch.rows():
            for match in self._probe_source(binder.key(left_row)):
                out.append(left_row.concat(match, schema))
        if not out:
            return None
        return Batch.from_rows(schema, out)

    def _next_batch(self, max_rows: int) -> Batch:
        return self._batched(max_rows, None)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        return self._batched(max_rows, arrival_bound)

    def _batched(self, max_rows: int, arrival_bound: float | None) -> Batch:
        schema = self.output_schema
        while True:
            if self._pending_out is not None:
                part = self._pending_out.take(max_rows)
                if not self._pending_out:
                    self._pending_out = None
                if part:
                    return part
            if self._pending:
                # Leftovers from a tuple-at-a-time caller on the same operator.
                rows = self._pending[:max_rows]
                del self._pending[:max_rows]
                return Batch.from_rows(schema, rows)
            if arrival_bound is None:
                left_batch = self.left.next_batch(max_rows)
            else:
                left_batch = self.left.next_batch_bounded(max_rows, arrival_bound)
            if not left_batch:
                # Unbounded: left exhausted — end of stream.  Bounded:
                # possibly just the bound; the caller falls back to next().
                return Batch.empty(schema)
            result = self._probe_left_batch(left_batch)
            if result is not None:
                self._pending_out = BatchCursor(result)
