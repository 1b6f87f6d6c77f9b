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

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import ExecutionError
from repro.network.cache import CACHE_SERVE_CPU_MS
from repro.storage.batch import Batch, MatchCursor
from repro.storage.columns import RunLengthArrivals
from repro.storage.schema import Schema
from repro.storage.tuples import Key, KeyBinder


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
        #: ``key -> positions`` over the source's export, and the export as
        #: the match cursor's right side (stamped 0: an output row carries
        #: its left row's stamp).
        self._index: dict[Key, list[int]] | None = None
        self._right: Batch | None = None
        self._pending_out: MatchCursor | None = None
        self._left_binder = KeyBinder(left_keys)
        self._right_binder = KeyBinder(right_keys)
        self._memo: dict[Key, list[int]] | None = {} if probe_cache else None
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
                # The entry views the export the probes read: serve locally.
                self._cached_extent = True

    def _build_index(self) -> None:
        """Index the source's export by the bound key, ``key -> positions``."""
        source, schema = self._source, self._right_schema
        count = source.cardinality
        right = Batch(schema, source.column_span(0, count), RunLengthArrivals.constant(0.0, count))
        index: dict[Key, list[int]] = {}
        for position, key in enumerate(right.key_tuples(self._right_binder.indices_in(schema))):
            found = index.get(key)
            if found is None:
                index[key] = [position]
            else:
                found.append(position)
        self._index, self._right = index, right

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
        if cache.lookup(self.source_name, now, session=self.context.session_id) is not None:
            self._cached_extent = True

    def _probe_source(self, key: Key) -> list[int]:
        """One parameterized fetch: the export positions matching ``key``;
        memoized so duplicate keys pay latency once."""
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
        matches = self._index.get(key, [])
        if self._cached_extent:
            # Full extent cached locally: a probe is an in-memory lookup.
            self.context.clock.consume_cpu(CACHE_SERVE_CPU_MS * (1 + len(matches)))
        else:
            profile = self._source.profile
            size = self._right_schema.tuple_size
            transfer = sum(profile.transfer_ms(size) for _ in matches)
            self.context.clock.consume_cpu(0.0)  # explicit: probe CPU is negligible
            self.context.clock.advance_to(
                self.context.clock.now + profile.initial_latency_ms + transfer
            )
        if memo is not None:
            memo[key] = matches
        return matches

    def _probe_left_batch(self, left_batch: Batch) -> MatchCursor | None:
        """All matches for one left batch; ``None`` when nothing matched.

        Keys come from the batch's key columns; the probes themselves stay
        per-key (each is a parameterized source fetch, memo-deduplicated) and
        return export positions, and a :class:`MatchCursor` gathers the output
        from the left batch and the export as it hands it out.
        """
        keys = left_batch.key_tuples(self._left_binder.indices_in(left_batch.schema))
        take: list[int] = []
        at: list[int] = []
        aligned = True
        for position, key in enumerate(keys):
            found = self._probe_source(key)
            if len(found) == 1:
                take.append(position)
            else:
                aligned = False
                take.extend([position] * len(found))
            at.extend(found)
        if not take:
            return None
        return MatchCursor(
            self.output_schema, left_batch, take, self._right, at, aligned, bound=0.0
        )

    def _next_batch(self, max_rows: int, arrival_bound: float | None = None) -> Batch:
        schema = self.output_schema
        while True:
            if self._pending_out is not None:
                part = self._pending_out.take(max_rows)
                if not self._pending_out:
                    self._pending_out = None
                if part:
                    return part
            if arrival_bound is None:
                left_batch = self.left.next_batch(max_rows)
            else:
                left_batch = self.left.next_batch_bounded(max_rows, arrival_bound)
            if not left_batch:
                # Unbounded: left exhausted — end of stream.  Bounded:
                # possibly just the bound; the caller falls back to next_one().
                return Batch.empty(schema)
            self._pending_out = self._probe_left_batch(left_batch)
