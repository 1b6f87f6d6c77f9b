"""The dynamic collector (Section 4.1).

A collector computes a union over a set of overlapping or mirrored sources
under a *policy*: it contacts some of its children, monitors their progress,
activates fallback sources when a child fails or times out, and can drop
slow mirrors once enough data has been obtained.  Child activation and
deactivation can also be driven externally by ECA rules (the ``activate`` /
``deactivate`` rule actions), which is how optimizer-generated policies are
expressed.
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import ExecutionError, SourceTimeoutError, SourceUnavailableError
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.columns import as_values
from repro.storage.disk import OverflowFile
from repro.storage.schema import Schema, merge_union_schema
from repro.storage.tuples import Key, KeyBinder, Row

#: Per-key tuple/set-slot overhead charged for one remembered dedup key.
DEDUP_KEY_OVERHEAD_BYTES = 16

#: Bytes charged per spilled key for its retained in-memory hash digest
#: (one 64-bit hash — the summary that lets fresh keys skip the spill-file
#: scan entirely; an actual hit still confirms against the file).
DEDUP_DIGEST_BYTES = 8


class DynamicCollector(Operator):
    """Policy-driven union over overlapping sources.

    Parameters
    ----------
    children:
        Child operators, typically wrapper scans over mirrors of one mediated
        relation.  Children are addressed by their operator id.
    initially_active:
        Operator ids to contact when the collector opens.  ``None`` activates
        every child (the plain-union-like default).
    fallback_on_failure:
        When true, a failed or timed-out child causes the next inactive child
        to be activated automatically (in declaration order).
    dedup_keys:
        Attribute names used to suppress duplicates coming from overlapping
        sources; ``None`` disables deduplication.
    dedup_budget_bytes:
        Allotment for the dedup key set; ``None`` (the default) grants an
        unbounded budget, the paper's behaviour.

    Dedup state is *byte-accounted*: every remembered key charges its
    estimated footprint (key attribute sizes plus tuple/set-slot overhead)
    to a budget carved from the query's memory pool, so the §4 invariant —
    memory an operator holds is memory the pool knows about — extends to
    dedup plans, and its usage is visible to rule conditions via
    ``operator_memory``.  When the budget is bounded — an explicit
    ``dedup_budget_bytes``, or a broker lease revoked under cross-query
    pressure — an over-limit key set **spills**: the resident keys move to
    an :class:`~repro.storage.disk.OverflowFile` (one columnar chunk, bytes
    released), and later membership tests consult the spilled portion by
    re-reading the file with real I/O charges — duplicate suppression stays
    exact, and the cost of insufficient memory shows up in virtual time
    instead of a silently growing key set.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        children: list[Operator],
        initially_active: list[str] | None = None,
        fallback_on_failure: bool = True,
        dedup_keys: list[str] | None = None,
        estimated_cardinality: int | None = None,
        dedup_budget_bytes: int | None = None,
    ) -> None:
        if not children:
            raise ExecutionError("collector requires at least one child")
        super().__init__(
            operator_id, context, children=children, estimated_cardinality=estimated_cardinality
        )
        self._child_by_id = {child.operator_id: child for child in children}
        if len(self._child_by_id) != len(children):
            raise ExecutionError("collector children must have unique operator ids")
        self.fallback_on_failure = fallback_on_failure
        self.dedup_keys = list(dedup_keys) if dedup_keys else None
        if initially_active is None:
            self._initially_active = [child.operator_id for child in children]
        else:
            unknown = set(initially_active) - set(self._child_by_id)
            if unknown:
                raise ExecutionError(f"unknown collector children: {sorted(unknown)}")
            self._initially_active = list(initially_active)
        self._active: list[str] = []
        self._finished: set[str] = set()
        self._failed: set[str] = set()
        self._never_started: list[str] = []
        self._seen_keys: set[Key] = set()
        self._schema: Schema | None = None
        self.tuples_per_child: dict[str, int] = {c.operator_id: 0 for c in children}
        self._dedup_binder = KeyBinder(self.dedup_keys) if self.dedup_keys else None
        #: Budget charged for the dedup key set (see the class docstring).
        self.budget = context.memory_pool.grant(f"{operator_id}-dedup", dedup_budget_bytes)
        self.budget.on_revoke = self._on_dedup_revoked
        self._key_bytes: int | None = None
        self._spilled_keys_file: OverflowFile | None = None
        self._spilled_key_count = 0
        #: Hashes of every spilled key (budget-charged at
        #: :data:`DEDUP_DIGEST_BYTES` each): a digest miss proves a key was
        #: never spilled without touching the file, so only genuine
        #: duplicates (and vanishingly rare hash collisions) pay the
        #: confirm-by-scan I/O.
        self._spilled_digest: set[int] = set()
        self.dedup_spills = 0
        self._disk_baseline = None

    def _dedup_key_bytes(self) -> int:
        """Estimated bytes one remembered dedup key occupies."""
        size = self._key_bytes
        if size is None:
            schema = self.output_schema
            size = DEDUP_KEY_OVERHEAD_BYTES + sum(
                schema.attributes[i].avg_size + 8
                for i in self._dedup_binder.indices_in(schema)
            )
            self._key_bytes = size
        return size

    # -- dedup key-set spilling ----------------------------------------------------------

    def _charge_disk_time(self) -> None:
        """Convert key-set spill I/O performed since the last call into virtual time."""
        disk = self.context.disk
        if self._disk_baseline is None:
            self._disk_baseline = disk.stats.snapshot()
        elapsed = disk.io_time_ms(self._disk_baseline)
        if elapsed > 0:
            self.context.clock.consume_io(elapsed)
            self._disk_baseline = disk.stats.snapshot()

    def _key_schema(self) -> Schema:
        schema = self.output_schema
        return Schema(
            tuple(schema.attributes[i] for i in self._dedup_binder.indices_in(schema))
        )

    def _reserve_dedup_keys(self, added: int) -> None:
        """Charge freshly remembered keys; spill the set when over the limit.

        Key growth cannot be refused key by key (forgetting a key breaks
        duplicate suppression), so the charge is forced and the overflow
        signal — usage past a bounded limit — resolves by moving the whole
        resident set to disk, the same flush-don't-fail discipline the
        hash-table buckets follow.
        """
        if added <= 0:
            return
        budget = self.budget
        budget.force_reserve(added * self._dedup_key_bytes())
        if budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            self._spill_seen_keys()

    def _on_dedup_revoked(self, budget) -> None:
        """Broker revocation mid-query: the key set spills immediately."""
        self._spill_seen_keys()

    def _spill_seen_keys(self) -> None:
        """Move the resident key set to the overflow file and release its bytes."""
        keys = self._seen_keys
        if not keys:
            return
        if self._disk_baseline is None:
            # Baseline *before* the first write, so the first spill's I/O is
            # charged like every later one.
            self._disk_baseline = self.context.disk.stats.snapshot()
        if self._spilled_keys_file is None:
            self._spilled_keys_file = self.context.disk.create_file(
                f"{self.operator_id}-dedup", schema=self._key_schema()
            )
        ordered = list(keys)
        single = self._dedup_binder.single  # one key column: the keys are its values
        columns = [ordered] if single else [list(column) for column in zip(*ordered)]
        # Keys carry no arrival of their own; a constant stamp keeps the
        # chunk's arrival column one run in encoded mode.
        self._spilled_keys_file.write_columns(
            columns, [self.context.clock.now] * len(ordered)
        )
        self._spilled_key_count += len(ordered)
        digest = self._spilled_digest
        before = len(digest)
        digest.update(hash(key) for key in ordered)
        self._seen_keys = set()
        # The payload bytes leave memory; the retained digest is charged at
        # its real footprint, so the budget stays an honest total (a limit
        # smaller than the digest itself simply keeps the resident set
        # near-empty — thrashy but exact).
        self.budget.release(len(ordered) * self._dedup_key_bytes())
        added = len(digest) - before
        if added:
            self.budget.force_reserve(added * DEDUP_DIGEST_BYTES)
        self.dedup_spills += 1
        self._charge_disk_time()

    def _spilled_hits(self, keys) -> frozenset:
        """Which of ``keys`` were spilled earlier (digest filter, then scan).

        The spilled portion of the key set lives on disk only.  The
        in-memory digest of spilled-key hashes rules out fresh keys for
        free; probes that survive it re-read the file chunk by chunk with
        the standard page-count charges to confirm exactly — so the
        virtual-time price of deduplicating in less memory than the key
        set needs is paid per genuine duplicate, not per row.
        """
        file = self._spilled_keys_file
        if file is None or len(file) == 0:
            return frozenset()
        digest = self._spilled_digest
        probe = {key for key in keys if hash(key) in digest}
        if not probe:
            return frozenset()
        hits = set()
        single = self._dedup_binder.single
        for chunk in file.read_chunks():
            columns = [as_values(column) for column in chunk.columns]
            hits.update(probe.intersection(columns[0] if single else zip(*columns)))
        self._charge_disk_time()
        return frozenset(hits)

    # -- schema -------------------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            schema = self.children[0].output_schema
            for child in self.children[1:]:
                schema = merge_union_schema(schema, child.output_schema)
            self._schema = schema
        return self._schema

    # -- activation control (used by rule actions and policies) -----------------------------

    def open(self) -> None:  # noqa: D102 - overrides to defer child opening to activation
        if self.state == "open":
            return
        self._never_started = [
            child.operator_id
            for child in self.children
            if child.operator_id not in self._initially_active
        ]
        self.state = "open"
        self._stats.state = "open"
        self.context.emit_event(EventType.OPENED, self.operator_id)
        for child_id in self._initially_active:
            self.activate_child(child_id)

    def activate_child(self, child_id: str) -> None:
        """Contact one child source (idempotent)."""
        if child_id in self._active or child_id in self._finished or child_id in self._failed:
            return
        child = self._require_child(child_id)
        child.open()
        self.context.reactivate(child_id)
        self._active.append(child_id)
        if child_id in self._never_started:
            self._never_started.remove(child_id)

    def deactivate_child(self, child_id: str) -> None:
        """Stop reading from one child (its rules become inactive too)."""
        child = self._require_child(child_id)
        if child_id in self._active:
            self._active.remove(child_id)
        self._finished.add(child_id)
        child.deactivate()

    def _require_child(self, child_id: str) -> Operator:
        try:
            return self._child_by_id[child_id]
        except KeyError:
            raise ExecutionError(
                f"collector {self.operator_id!r} has no child {child_id!r}"
            ) from None

    @property
    def active_children(self) -> list[str]:
        return list(self._active)

    @property
    def contacted_children(self) -> list[str]:
        """Children that were ever activated."""
        return [
            child.operator_id
            for child in self.children
            if child.operator_id not in self._never_started
        ]

    # -- failure handling -----------------------------------------------------------------------

    def _handle_child_failure(self, child_id: str) -> None:
        if child_id in self._active:
            self._active.remove(child_id)
        self._failed.add(child_id)
        if self.fallback_on_failure:
            for child in self.children:
                cid = child.operator_id
                if cid not in self._active and cid not in self._finished and cid not in self._failed:
                    self.activate_child(cid)
                    break

    # -- iteration ----------------------------------------------------------------------------------

    def _pick_child(self) -> str | None:
        """Active child with the earliest next arrival; ``None`` when all are done."""
        best_id, best_arrival = None, None
        for child_id in list(self._active):
            child = self._child_by_id[child_id]
            arrival = child.peek_arrival()
            if arrival is None:
                self._active.remove(child_id)
                self._finished.add(child_id)
                continue
            if best_arrival is None or arrival < best_arrival:
                best_id, best_arrival = child_id, arrival
        return best_id

    def _next(self) -> Row | None:
        schema = self.output_schema
        while True:
            child_id = self._pick_child()
            if child_id is None:
                return None
            child = self._child_by_id[child_id]
            try:
                row = child.next()
            except (SourceTimeoutError, SourceUnavailableError):
                self._handle_child_failure(child_id)
                continue
            if row is None:
                self._active.remove(child_id)
                self._finished.add(child_id)
                continue
            self.tuples_per_child[child_id] += 1
            self.context.emit_event(
                EventType.THRESHOLD, child_id, value=self.tuples_per_child[child_id]
            )
            if self.dedup_keys is not None:
                key = self._dedup_binder.key(row)
                if key in self._seen_keys or (
                    self._spilled_key_count and self._spilled_hits([key])
                ):
                    continue
                self._seen_keys.add(key)
                self._reserve_dedup_keys(1)
            return Row(schema, row.values, row.arrival)

    def _next_batch(self, max_rows: int) -> Batch:
        """Batch iteration: bounded child runs with columnar deduplication.

        Which input to service next is still the collector's data-driven
        policy, but consecutive tuples of the chosen child are consumed as
        one *bounded run* — every row arriving strictly before the next-best
        child's arrival, exactly the rows a tuple-at-a-time drive would have
        pulled back to back.  Dedup keys are then extracted from the run's
        column slices in bulk and fresh rows kept with one index-take — no
        :class:`~repro.storage.tuples.Row` is boxed per tuple to call
        ``row.key``.  When a rule watches any child's THRESHOLD events the
        per-tuple path runs instead, so per-tuple events (and the rule
        actions they trigger) land at the tuple-accurate cut points.
        """
        context = self.context
        if any(
            context.event_watched(EventType.THRESHOLD, child.operator_id)
            for child in self.children
        ):
            return self._next_batch_tuplewise(max_rows)
        schema = self.output_schema
        parts: list[Batch] = []
        count = 0
        while count < max_rows:
            child_id = self._pick_child()
            if child_id is None:
                break
            child = self._child_by_id[child_id]
            bound = self._second_best_arrival(child_id)
            try:
                run = child.next_batch_bounded(max_rows - count, bound)
                if not run:
                    # Bound reached with nothing buffered (the tie case) or
                    # end of stream: take one exact per-tuple step.
                    row = child.next()
                    if row is None:
                        self._active.remove(child_id)
                        self._finished.add(child_id)
                        continue
                    run = Batch.from_rows(child.output_schema, [row])
            except (SourceTimeoutError, SourceUnavailableError):
                self._handle_child_failure(child_id)
                continue
            self.tuples_per_child[child_id] += len(run)
            if self.dedup_keys is not None:
                run = self._dedup_batch(run)
            if run:
                parts.append(run.with_schema(schema))
                count += len(run)
            if context.batch_interrupt and count:
                break
        return Batch.concat(schema, parts)

    def _second_best_arrival(self, chosen_id: str) -> float:
        """Earliest arrival any *other* active child could deliver."""
        best = float("inf")
        for child_id in self._active:
            if child_id == chosen_id:
                continue
            arrival = self._child_by_id[child_id].peek_arrival()
            if arrival is not None and arrival < best:
                best = arrival
        return best

    def _dedup_batch(self, run: Batch) -> Batch:
        """Drop already-seen keys from ``run`` with one index-take.

        Keys come from the run's column slices (dict-encoded columns decode
        to their dictionaries' canonical strings, so key hashing hits the
        cached-hash fast path); intra-run duplicates are suppressed too,
        matching the per-tuple discipline.
        """
        keys = run.key_tuples(self._dedup_binder.indices_in(run.schema))
        spilled = self._spilled_hits(keys) if self._spilled_key_count else frozenset()
        seen = self._seen_keys
        before = len(seen)
        if spilled:
            fresh = [
                position
                for position, key in enumerate(keys)
                if key not in spilled and key not in seen and not seen.add(key)
            ]
        else:
            fresh = [
                position
                for position, key in enumerate(keys)
                if key not in seen and not seen.add(key)
            ]
        added = len(seen) - before
        if added:
            self._reserve_dedup_keys(added)
        if len(fresh) == len(keys):
            return run
        if not fresh:
            return Batch.empty(run.schema)
        return run.take(fresh)

    def _next_batch_tuplewise(self, max_rows: int) -> Batch:
        """Per-row child selection with tuple-accurate THRESHOLD events.

        The pre-columnar batch path, kept for plans whose rules watch child
        thresholds: the batch is cut short as soon as a watched event fires
        so rule actions (activate/deactivate) take effect at the exact
        tuple.  The output batch is row-backed (rows are created here
        regardless); downstream columnar operators convert lazily.
        """
        schema = self.output_schema
        context = self.context
        out: list[Row] = []
        while len(out) < max_rows:
            child_id = self._pick_child()
            if child_id is None:
                break
            child = self._child_by_id[child_id]
            try:
                row = child.next()
            except (SourceTimeoutError, SourceUnavailableError):
                self._handle_child_failure(child_id)
                continue
            if row is None:
                self._active.remove(child_id)
                self._finished.add(child_id)
                continue
            count = self.tuples_per_child[child_id] + 1
            self.tuples_per_child[child_id] = count
            if context.event_watched(EventType.THRESHOLD, child_id):
                context.emit_event(EventType.THRESHOLD, child_id, value=count)
            if self.dedup_keys is not None:
                key = self._dedup_binder.key(row)
                if key in self._seen_keys or (
                    self._spilled_key_count and self._spilled_hits([key])
                ):
                    if context.batch_interrupt and out:
                        break
                    continue
                self._seen_keys.add(key)
                self._reserve_dedup_keys(1)
            out.append(Row.make(schema, row.values, row.arrival))
            if context.batch_interrupt:
                break
        return Batch.from_rows(schema, out)

    def _do_close(self) -> None:
        try:
            if self.budget.used_bytes:
                self.budget.release(self.budget.used_bytes)
        finally:
            # Even if the release raises, the dedup lease must go back so
            # broker.used == sum(resident_bytes) holds.
            self._seen_keys = set()
            self._spilled_digest = set()
            self.context.memory_pool.revoke(f"{self.operator_id}-dedup")
