"""Shared helper functions for the test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which relies on the top-level module name
``conftest`` resolving to *this directory's* conftest: a second tree's
``conftest`` imported first under that name poisons ``sys.modules`` and
breaks every such import.  Keeping the helpers in a uniquely named module
makes the imports unambiguous.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from repro.bench.harness import build_deployment
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators.joins.double_pipelined import (
    LEFT,
    RIGHT,
    DoublePipelinedJoin,
    _OutputColumns,
)
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.errors import SchemaError, StorageError
from repro.network.profiles import NetworkProfile, wide_area
from repro.plan.physical import join, wrapper_scan
from repro.plan.rules import EventType
from repro.server import QueryServer
from repro.storage.batch import Batch
from repro.storage.columns import DictColumn, extend_column, extend_moving, gather
from repro.storage.hash_table import bucket_of
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Key, KeyBinder, Row

#: The Hypothesis profile ``tests/conftest.py`` loads: ``tier1`` (the gate,
#: derandomized) unless ``HYPOTHESIS_PROFILE=fuzz`` selects the seeded fuzz run.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")


def examples(count: int) -> int:
    """A property's example budget: ``count`` in the gate, ten times that under ``fuzz``."""
    return count * 10 if HYPOTHESIS_PROFILE == "fuzz" else count


def digest(value) -> str:
    """Short SHA-256 of ``repr(value)``: how pinned goldens name an outcome."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def make_relation(name: str, columns: list[str], values: list[tuple]) -> Relation:
    """Helper used throughout the tests to build small relations."""
    schema = Schema.of(*columns)
    return Relation.from_values(name, schema, values)


# -- the reference relational algebra the engine's operators are checked against


def concat_rows(left: Row, right: Row, schema: Schema | None = None) -> Row:
    """``left`` and ``right`` as one join output row; arrival is the later stamp."""
    out_schema = schema if schema is not None else left.schema.join(right.schema)
    if len(out_schema) != len(left.values) + len(right.values):
        raise SchemaError(
            f"concatenated arity {len(left.values) + len(right.values)} does "
            f"not match schema arity {len(out_schema)} ({out_schema.names})"
        )
    return Row.make(
        out_schema,
        left.values + right.values,
        left.arrival if left.arrival >= right.arrival else right.arrival,
    )


def join_relations(
    left: Relation,
    right: Relation,
    left_keys: list[str],
    right_keys: list[str],
    name: str | None = None,
) -> Relation:
    """Reference hash equi-join of two relations (``left`` rows, then their matches)."""
    if len(left_keys) != len(right_keys):
        raise StorageError("join key lists must have equal length")
    schema = left.schema.join(right.schema)
    out = Relation(name or f"{left.name}_join_{right.name}", schema)
    index: dict[Key, list[Row]] = {}
    left_binder, right_binder = KeyBinder(left_keys), KeyBinder(right_keys)
    for row in right:
        index.setdefault(row_key(right_binder, row), []).append(row)
    out.extend(
        concat_rows(row, match, schema)
        for row in left
        for match in index.get(row_key(left_binder, row), ())
    )
    return out


def reference_join(left: Relation, right: Relation, left_key: str, right_key: str) -> Relation:
    """Order-insensitive reference equi-join used to validate engine operators."""
    return join_relations(
        qualified_relation(left), qualified_relation(right), [left_key], [right_key]
    )


def select_rows(relation: Relation, predicate, name: str | None = None) -> Relation:
    """The rows of ``relation`` satisfying ``predicate``."""
    out = Relation(name or relation.name, relation.schema)
    out.extend(row for row in relation.rows if predicate(row))
    return out


def union_relations(first: Relation, second: Relation, name: str | None = None) -> Relation:
    """Bag union (the schemas must be type-compatible)."""
    if not first.schema.compatible_with(second.schema):
        raise SchemaError(
            f"cannot union {first.name!r} and {second.name!r}: incompatible schemas"
        )
    out = Relation(name or f"{first.name}_union_{second.name}", first.schema)
    out.extend(first.rows)
    out.extend(Row(first.schema, r.values, r.arrival) for r in second)
    return out


def distinct_rows(relation: Relation, name: str | None = None) -> Relation:
    """Set-semantics copy (the first occurrence of each value vector kept)."""
    seen: set = set()
    kept = []
    for row in relation.rows:
        if row.values not in seen:
            seen.add(row.values)
            kept.append(row)
    return Relation(name or relation.name, relation.schema, kept)


def row_key(binder: KeyBinder, row: Row) -> Key:
    """``row``'s key under ``binder``: the value itself for one key attribute."""
    indices = binder.indices_in(row.schema)
    if binder.single:
        return row.values[indices[0]]
    return tuple(row.values[i] for i in indices)


def project_row(row: Row, names, schema: Schema | None = None) -> Row:
    """``row`` projected onto ``names`` (``schema`` may be supplied to avoid rebuilds)."""
    out_schema = schema if schema is not None else row.schema.project(names)
    return Row(out_schema, tuple(row[name] for name in names), row.arrival)


def project_relation(relation: Relation, names, name: str | None = None) -> Relation:
    """Bag projection onto ``names`` (duplicates retained)."""
    schema = relation.schema.project(names)
    return Relation(
        name or relation.name, schema, [project_row(row, names, schema) for row in relation]
    )


def qualified_relation(relation: Relation) -> Relation:
    """Copy with every attribute qualified by the relation name (stamps kept)."""
    schema = relation.schema.qualified(relation.name)
    return Relation(
        relation.name, schema, [Row.make(schema, row.values, row.arrival) for row in relation]
    )


def column_values(relation: Relation, name: str) -> list:
    """All values of attribute ``name``, in row order (strings decoded)."""
    columns, _ = relation.column_block(0, len(relation))
    return list(columns[relation.schema.index_of(name)])


def attribute_multiset(relation) -> dict:
    """Multiset of rows as (attribute -> value) sets, ignoring column order.

    Useful when comparing engine output (whose column order depends on the
    chosen join order) with a reference result.
    """
    counts: dict = {}
    for row in relation:
        key = frozenset((name.rsplit(".", 1)[-1], value) for name, value in row.as_dict().items())
        counts[key] = counts.get(key, 0) + 1
    return counts


def multiset(relation_or_rows) -> dict:
    """Value-vector multiset for order-insensitive comparisons."""
    if isinstance(relation_or_rows, Relation):
        return relation_or_rows.multiset()
    counts: dict = {}
    for row in relation_or_rows:
        counts[row.values] = counts.get(row.values, 0) + 1
    return counts


@dataclass(frozen=True)
class ScriptedProfile(NetworkProfile):
    """A network profile whose tuples arrive at an explicit timetable.

    ``timetable[i]`` is tuple ``i``'s arrival, relative to the moment the
    connection opens (ascending).  It drives real sources, wrappers and scans,
    so a test can place ties, slack-window overshoots and pauses exactly.
    """

    timetable: tuple[float, ...] = ()

    def lay_out(self, steps, jitter, count, start_ms):
        return [start_ms + offset for offset in self.timetable[:count]]


def arrival_schedule(profile, tuple_sizes, start_ms=0.0) -> list[float]:
    """Arrival stamps of tuples of ``tuple_sizes`` under ``profile``, the first
    sent at ``start_ms`` (deterministic given its seed): its ``stream_steps``
    laid out as a source's timetable lays them out."""
    steps, jitter = profile.stream_steps(tuple_sizes)
    return profile.lay_out(steps, jitter, len(tuple_sizes), start_ms)


def value_tuple(store, index):
    """The value vector of ``store``'s row ``index`` (a tuple, not a Row)."""
    return tuple(column[index] for column in store.columns)


def boxed_matches(schema, row, store, positions, row_first=True):
    """``row`` joined with ``store``'s rows at ``positions``, boxed (``row``
    is the left input unless ``row_first`` is false); each pair carries the
    later arrival stamp."""
    values, arrival, arrivals = row.values, row.arrival, store.arrivals
    out = []
    for position in positions:
        matched, stamp = value_tuple(store, position), arrivals[position]
        out.append(
            Row.make(
                schema,
                values + matched if row_first else matched + values,
                arrival if arrival >= stamp else stamp,
            )
        )
    return out


def resident_matches(table, key) -> list[Row]:
    """``table``'s resident rows matching ``key``, boxed."""
    matched = table.match_positions(key)
    if matched is None:
        return []
    store, positions = matched
    return [
        Row.make(store.schema, value_tuple(store, i), store.arrivals[i]) for i in positions
    ]


def spill_row(file, row, marked=False, ledger=None) -> None:
    """Append one boxed ``row`` to the spill ``file`` through the per-row
    kernel, :meth:`~repro.storage.disk.OverflowFile.write_position`."""
    file.write_position([[value] for value in row.values], 0, row.arrival, marked, ledger)


def insert_row(table, row, marked=False, key=None) -> bool:
    """Insert one boxed ``row`` into the hash ``table``: spilled (:func:`spill_row`)
    when its bucket is flushed, else a one-row ``insert_batch``.  True when the
    row is resident; false when it was spilled or the budget refused it."""
    if key is None:
        key = row_key(KeyBinder(table.key_names), row)
    index = bucket_of(key, table.bucket_count)
    if table.flushed[index]:
        spill_row(table.spill_log, row, marked, table.buckets[index])
        return False
    return table.insert_batch(Batch.from_rows(row.schema, [row]), marked, [key]) == 1


def read_rows(file, ledger=None, charge=True) -> list[tuple[Row, bool]]:
    """The spill ``file``'s rows (``ledger``'s group alone when given) boxed
    as ``(row, marked)`` pairs in write order.  Read I/O is charged, as
    ``read_chunks`` charges it, unless ``charge`` is false (``peek``)."""
    chunks = file.read_chunks(ledger) if charge else file.peek()
    schema = file.schema
    return [
        (Row.make(schema, tuple(column[i] for column in chunk.columns), arrival), marked)
        for chunk in chunks
        for i, (arrival, marked) in enumerate(zip(chunk.arrivals, chunk.marked))
    ]


def next_row(operator) -> Row | None:
    """One exact step of ``operator`` (:meth:`Operator.next_one`), its row
    boxed; ``None`` at end of stream."""
    batch = operator.next_one()
    assert len(batch) <= 1
    return batch[0] if batch else None


def watch_threshold(context, operator_id: str) -> None:
    """Have ``operator_id`` raise ``threshold`` at every row and cut its
    batches there, as a rule with an opaque condition on that event does."""
    context.watch_events({(EventType.THRESHOLD, operator_id)})
    context.thresholds[operator_id] = context.operator_card(operator_id) + 1


def iterate(operator):
    """``operator``'s full output, row by row through :func:`next_row`."""
    while (row := next_row(operator)) is not None:
        yield row


def drain(queue) -> list:
    """Pop every event waiting in ``queue``, oldest first."""
    events = []
    while queue:
        events.append(queue.pop())
    return events


def server_resident_bytes(server) -> int:
    """Server-wide resident bytes recomputed from live hash tables (not
    budgets), every exchange lane of every session included."""
    operators = []
    for session in server.sessions.values():
        operators.extend(session.context.operators.values())
    for operator in list(operators):
        operators.extend(getattr(operator, "lane_operators", ()))
    total = 0
    for operator in operators:
        for table in getattr(operator, "_tables", None) or ():
            total += table.resident_bytes
        inner = getattr(operator, "_inner_table", None)
        if inner is not None:
            total += inner.resident_bytes
    return total


#: The eight-session server mix: every session joins ``partsupp`` over a
#: wide-area link, and each source serves two streams at once.
MIX_SESSIONS = 8
MIX_TABLES = ["part", "partsupp", "supplier"]
MIX_MAX_CONCURRENT = 2


def mix_deployment():
    """A fresh deployment of the mix's sources (connection slots unshared)."""
    deployment = build_deployment(1.0, MIX_TABLES, profile=wide_area(), seed=42)
    for source in deployment.sources.values():
        source.max_concurrent = MIX_MAX_CONCURRENT
    return deployment


def mix_session_spec(index: int, memory_bytes: int):
    """Session ``index``'s plan: a DPJ sharing ``partsupp`` with everyone."""
    prefix = f"s{index}"
    if index % 2 == 0:
        left, left_key, right_key = "part", "part.p_partkey", "partsupp.ps_partkey"
    else:
        left, left_key, right_key = "supplier", "supplier.s_suppkey", "partsupp.ps_suppkey"
    return join(
        wrapper_scan(left, operator_id=f"{prefix}_scan_{left}"),
        wrapper_scan("partsupp", operator_id=f"{prefix}_scan_partsupp"),
        [left_key],
        [right_key],
        operator_id=f"{prefix}_join",
        memory_limit_bytes=memory_bytes,
    )


def mix_memory_request(deployment) -> int:
    """One session's memory request: its whole join state fits single-tenant."""
    total = 0
    for name in MIX_TABLES:
        source = deployment.sources[name]
        total += source.cardinality * source.exported_schema.encoded_row_size
    return max(32 * 1024, int(total * 0.9))


def run_mix(memory_bytes: int, capacity_sessions: float, arrivals, engine_config=None):
    """The mix on one server whose broker holds ``capacity_sessions`` join
    requests, session ``i`` arriving at ``arrivals[i]``.  Returns the server's
    stats, the sessions and, per revocation, ``(record, broker used bytes,
    resident bytes of the live hash tables, the prefetcher's resident
    bytes)``."""
    server = QueryServer(
        mix_deployment().catalog,
        engine_config=engine_config,
        memory_capacity_bytes=int(memory_bytes * capacity_sessions),
    )
    server.broker.floor_bytes = max(16 * 1024, memory_bytes // 8)
    revocations = []

    def check(broker, record):
        prefetched = server.prefetcher.resident_bytes if server.prefetcher is not None else 0
        revocations.append(
            (record, broker.used_bytes, server_resident_bytes(server), prefetched)
        )

    server.broker.on_revocation = check
    sessions = [
        server.submit(mix_session_spec(index, memory_bytes), f"s{index}", arrival_ms=arrival)
        for index, arrival in enumerate(arrivals)
    ]
    stats = server.run()
    return stats, sessions, revocations


def contacted_children(collector) -> list[str]:
    """The ids of ``collector``'s children that were ever activated."""
    return [
        child.operator_id
        for child in collector.children
        if child.operator_id not in collector._never_started
    ]


class RowPipelineDPJ(DoublePipelinedJoin):
    """The DPJ's per-tuple pipeline — :meth:`_process` per consumed row and
    the row cleanup :meth:`_cleanup_pairs` — fed by the join's own input runs.

    What the engine's retired row-batch drive ran (its tuple drive fed the
    same pipeline a child row at a time): matches are boxed onto
    :attr:`_pending` and handed over at the top of the next loop turn, spills
    are row writes charged one row at a time.
    """

    def _do_open(self):
        super()._do_open()
        self._pending = []
        self._cleanup = None

    def peek_arrival(self):
        if self.state == "open" and (self._pending or self._cleanup is not None):
            return self.context.clock.now
        return super().peek_arrival()

    def _next_batch(self, max_rows, arrival_bound=None):
        context, clock = self.context, self.context.clock
        rows = []
        while len(rows) < max_rows:
            if arrival_bound is not None and clock.now >= arrival_bound:
                break
            if self._pending:
                room = max_rows - len(rows)
                rows += self._pending[:room]
                del self._pending[:room]
                if context.batch_interrupt:
                    break
                continue
            if self._cleanup is not None:
                row = next(self._cleanup, None)
                if row is None:
                    break
                self._pending.append(row)
                continue
            side = self._choose_side()
            if side is None:
                self._cleanup = self._cleanup_pairs()
                continue
            run = self._runs[side]
            if run is None or run.cursor >= len(run):
                run = self._pull_run(side)
            if run is None:
                row = next_row(self._child(side))
                if row is None:
                    self._exhausted[side] = True
                    if side == RIGHT and self._drain_right_first:
                        self._drain_right_first = False
                    continue
                run = self._buffer_run(side, Batch.from_rows(row.schema, [row]))
            position = run.cursor
            run.cursor = position + 1
            self._process(side, run.batch[position], run.keys[position])
            if run.cursor >= len(run):
                self._runs[side] = None
            if context.batch_interrupt and rows:
                break
        return Batch.from_rows(self.output_schema, rows)

    def _process(self, side, row, key):
        """Probe, emit, and insert one arriving tuple."""
        other, tables = 1 - side, self._tables
        index = bucket_of(key, self.bucket_count)
        if tables[LEFT].flushed[index] or tables[RIGHT].flushed[index]:
            # Arrived after its bucket spilled: never probes live (marked).
            self._spill_arriving(side, index, row, marked=True)
            return
        store = tables[other].arena
        matches = store.lookup(key) if store is not None else None
        if matches:
            self._emitted_output = True
            self._pending += boxed_matches(self.output_schema, row, store, matches, side == LEFT)
        if self._exhausted[other]:
            return  # footnote 3: nothing left for it to meet
        table = tables[side]
        while True:
            if table.flushed[index]:
                # The strategy spilled its own bucket: it has probed (unmarked).
                self._spill_arriving(side, index, row, marked=False)
                return
            if insert_row(table, row, key=key):
                return
            self._resolve_overflow()

    def _spill_arriving(self, side, index, row, marked):
        table = self._tables[side]
        spill_row(table.spill_log, row, marked, table.buckets[index])
        self._charge_disk_time()

    def _cleanup_pairs(self):
        """Row-at-a-time overflow resolution, every spilled tuple boxed."""
        left_key = partial(row_key, self._left_binder)
        right_key = partial(row_key, self._right_binder)
        schema = self.output_schema
        for index in self._spilled_buckets():
            entries = [read_rows(table.spill_log, table.buckets[index]) for table in self._tables]
            self._charge_disk_time()
            # Resident remnants participate as unmarked entries (no read cost).
            for table, side_entries in zip(self._tables, entries):
                remnant = Batch.from_columns(table.schema, *table.bucket_rows(index))
                side_entries.extend((row, False) for row in remnant.rows())
            left_entries, right_entries = entries
            right_by_key = {}
            for row, marked in right_entries:
                right_by_key.setdefault(right_key(row), []).append((row, marked))
            for left_row, left_marked in left_entries:
                for right_row, right_marked in right_by_key.get(left_key(left_row), ()):
                    if left_marked or right_marked:  # both unmarked: already emitted
                        yield concat_rows(left_row, right_row, schema)


class BoxedRowsCursor:
    """The per-row pipelines' pending output: rows boxed when produced (so
    fixed then), handed out in pieces as the join's cursor hands out its own."""

    def __init__(self, schema, rows):
        self.schema, self.rows, self.position = schema, rows, 0

    def __len__(self):
        return len(self.rows) - self.position

    def take(self, n):
        start = self.position
        self.position = min(start + n, len(self.rows))
        return Batch.from_rows(self.schema, self.rows[start : self.position])

    def settle(self):
        pass


class RowPipelineHybrid(HybridHashJoin):
    """The hybrid's per-row probe (:meth:`_probe_one`) and row overflow pass
    (:meth:`_overflow_pairs`, handed over one row per cursor)."""

    def _probe_outer_batch(self, outer):
        matches = []
        for outer_row in outer.rows():
            matches += self._probe_one(outer_row)
        return BoxedRowsCursor(self.output_schema, matches) if matches else None

    def _probe_one(self, outer_row):
        key = row_key(self._left_binder, outer_row)
        index = bucket_of(key, self.bucket_count)
        if self._inner_table.flushed[index]:
            outer = self._outer_table
            spill_row(outer.spill_log, outer_row, False, outer.buckets[index])
            self._charge_disk_time()
            return []
        matched = self._inner_table.match_positions(key)
        return boxed_matches(self.output_schema, outer_row, *matched) if matched else []

    def _overflow_pair_cursors(self):
        for row in self._overflow_pairs():
            yield BoxedRowsCursor(self.output_schema, [row])

    def _overflow_pairs(self):
        """Joins spilled pairs bucket by bucket, boxing each tuple."""
        left_key = partial(row_key, self._left_binder)
        right_key = partial(row_key, self._right_binder)
        schema, inner, outer = self.output_schema, self._inner_table, self._outer_table
        for bucket_index in inner.flushed_buckets:
            if not outer.buckets[bucket_index].spilled_count:
                continue
            # Reload the inner bucket (charging read I/O) into a transient map.
            inner_by_key = {}
            for inner_row, _ in read_rows(inner.spill_log, inner.buckets[bucket_index]):
                inner_by_key.setdefault(right_key(inner_row), []).append(inner_row)
            self._charge_disk_time()
            for outer_row, _ in read_rows(outer.spill_log, outer.buckets[bucket_index]):
                for inner_row in inner_by_key.get(left_key(outer_row), ()):
                    yield concat_rows(outer_row, inner_row, schema)
            self._charge_disk_time()


def gather_then_extend(columns, first, sources, indices=None, encode=False):
    """The two-copy reference for :func:`~repro.storage.columns.gather_into`:
    each source's values at ``indices`` (all of them when ``None``) gathered
    into a fresh column, which is then extended onto ``columns[first + j]``
    as the output accumulators and the arena extended before write-through:
    a list from a list, a dict column from its own dictionary's codes, and
    anything else through ``extend_column`` (``encode``) or ``extend_moving``."""
    for j, source in enumerate(sources, first):
        fresh = source if indices is None else gather(source, indices)
        mine = columns[j]
        if encode:
            extend_column(columns, j, fresh)
        elif type(mine) is list and type(fresh) is list:
            mine.extend(fresh)
        elif (
            type(mine) is DictColumn
            and type(fresh) is DictColumn
            and fresh.dictionary is mine.dictionary
        ):
            mine.codes.extend(fresh.codes)
        else:
            extend_moving(columns, j, fresh)


class GatherThenExtendOutput(_OutputColumns):
    """The output accumulators before write-through: rows are only ever
    appended as whole fresh column sets (:func:`gather_then_extend`), and a
    partial hand-over moves a cursor, keeping the rows it handed out."""

    __slots__ = ("cursor",)

    def __init__(self):
        super().__init__()
        self.cursor = 0

    def __len__(self):
        return len(self.arrivals) - self.cursor

    def extend(self, columns, arrivals):
        if not self.arrivals:
            self.columns, self.arrivals = columns, arrivals
            return
        gather_then_extend(self.columns, 0, columns)
        self.arrivals.extend(arrivals)

    def take_batch(self, schema, max_rows):
        start, total = self.cursor, len(self.arrivals)
        stop = min(start + max_rows, total)
        if start == 0 and stop == total:
            batch = Batch.from_columns(schema, self.columns, self.arrivals)
        else:
            columns = [column[start:stop] for column in self.columns]
            batch = Batch.from_columns(schema, columns, self.arrivals[start:stop])
        if stop == total:
            self.columns, self.arrivals, self.cursor = [], [], 0
        else:
            self.cursor = stop
        return batch


class GatherThenExtendDPJ(DoublePipelinedJoin):
    """The DPJ's output path before write-through, as an oracle: every run
    segment emits into empty accumulators — so it gathers its matches and
    its own rows into fresh columns — and those are then extended onto the
    rows pending (:class:`GatherThenExtendOutput`)."""

    def _do_open(self):
        super()._do_open()
        self._out = GatherThenExtendOutput()

    def _consume_segment(self, side, run, room, arrival_bound):
        pending, self._out = self._out, _OutputColumns()
        try:
            super()._consume_segment(side, run, room, arrival_bound)
        finally:
            fresh, self._out = self._out, pending
        if len(fresh):
            pending.extend(fresh.columns, fresh.arrivals)


class ScriptedRuns(Operator):
    """A leaf serving prebuilt batches in order, each row arriving at its
    stamp: a pull stays inside one batch — its column storage classes kept —
    and takes the rows arriving before the bound, the clock waiting for the
    last one taken."""

    def __init__(self, operator_id, context, schema, batches):
        super().__init__(operator_id, context)
        self._schema = schema
        self._batches = list(batches)
        self._cursor = 0

    @property
    def output_schema(self):
        return self._schema

    def peek_arrival(self):
        if self.state in ("closed", "deactivated") or not self._batches:
            return None
        return self._batches[0].arrivals[self._cursor]

    def _next_batch(self, max_rows, arrival_bound=None):
        if not self._batches:
            return Batch.empty(self._schema)
        batch, start = self._batches[0], self._cursor
        arrivals = batch.arrivals
        stop = min(start + max_rows, len(batch))
        if arrival_bound is not None:
            stop = next((i for i in range(start, stop) if arrivals[i] >= arrival_bound), stop)
        if stop == start:
            return Batch.empty(self._schema)
        self.context.clock.advance_to(arrivals[stop - 1])
        if stop == len(batch):
            self._batches.pop(0)
            self._cursor = 0
        else:
            self._cursor = stop
        columns = [column[start:stop] for column in batch.columns]
        return Batch.from_columns(self._schema, columns, list(arrivals[start:stop]))


def per_tuple_reference(join):
    """Switch a freshly built DPJ or hybrid hash join to its per-tuple pipeline."""
    join.__class__ = {DoublePipelinedJoin: RowPipelineDPJ, HybridHashJoin: RowPipelineHybrid}[
        type(join)
    ]
    return join


def tpcd_dpj(memory, method, buckets=8):
    """Builder of ``partsupp ⋈ part`` through a double pipelined join ("dpj")."""
    return lambda context: DoublePipelinedJoin(
        "dpj", context, WrapperScan("scan_ps", context, "partsupp"),
        WrapperScan("scan_p", context, "part"), ["partsupp.ps_partkey"], ["part.p_partkey"],
        memory_limit_bytes=memory, bucket_count=buckets, overflow_method=method,
    )


def tpcd_hybrid(memory):
    """Builder of the same join through a hybrid hash join ("hh")."""
    return lambda context: HybridHashJoin(
        "hh", context, WrapperScan("scan_ps", context, "partsupp"),
        WrapperScan("scan_p", context, "part"), ["partsupp.ps_partkey"], ["part.p_partkey"],
        memory_limit_bytes=memory, bucket_count=8,
    )


def drive_join(build, catalog, drive, batch_size=64, between_batches=None, **config):
    """Drain ``build(context)`` under one drive; returns ``(rows, context, join)``.

    ``drive`` is ``"columnar"`` (the batch drive), ``"rows"`` (the batch
    protocol over the join's per-tuple pipeline, :func:`per_tuple_reference`)
    or ``"tuple"`` (one row at a time through :func:`next_row`).  Rows
    come back in production order.  The batch drives clear
    ``batch_interrupt`` after every batch, as the executor does once it has
    drained the event queue; ``between_batches(index, join)`` runs after each
    batch (revocations, inspections).
    """
    context = ExecutionContext(catalog, config=EngineConfig(**config))
    join = build(context)
    if drive == "rows":
        per_tuple_reference(join)
    join.open()
    if drive == "tuple":
        rows = list(iterate(join))
    else:
        batches = []
        while True:
            batch = join.next_batch(batch_size)
            if not batch:
                break
            batches.append(batch)
            context.batch_interrupt = False
            if between_batches is not None:
                between_batches(len(batches), join)
        rows = [row for batch in batches for row in batch]
    join.close()
    return rows, context, join


def spill_marks(context) -> tuple[int, int]:
    """``(marked, unmarked)`` spilled-row counts over every overflow file."""
    chunks = [chunk for file in context.disk._files.values() for chunk in file.peek()]
    marks = [marked for chunk in chunks for marked in chunk.marked]
    return sum(marks), len(marks) - sum(marks)


@contextmanager
def recording_calls(owner, name):
    """Record ``(args, kwargs, result)`` of every ``owner.name`` call in a
    scope (``args`` includes ``self``); yields the list being filled."""
    original = getattr(owner, name)
    calls: list[tuple] = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    setattr(owner, name, recorded)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def spill_fingerprints(batch_size: int = 64) -> dict:
    """What the §4.2.3 overflow workload decides and charges, plan by plan.

    ``part ⋈ partsupp`` (1 MB TPC-D, seed 7) at a third of the encoded join
    state through the double pipelined join under both overflow strategies and
    a constrained hybrid hash join, plus the left-flush plan re-keyed on
    strings, each drained ``batch_size`` rows a pull: flush victims in order,
    spill bytes and pages, overflow events, the final virtual clock, the
    result cardinality, its multiset digest and the first row's arrival
    stamp (time to first tuple).  Bucket identity is
    the builtin ``hash``, so the string-keyed numbers repeat only under a
    fixed ``PYTHONHASHSEED`` — callers run this in a child interpreter.
    """
    from repro.catalog.catalog import DataSourceCatalog
    from repro.datagen.tpcd import TPCDGenerator
    from repro.network.profiles import lan
    from repro.network.source import DataSource
    from repro.plan.physical import OverflowMethod
    from repro.storage.hash_table import BucketedHashTable

    database = TPCDGenerator(scale_mb=1.0, seed=7).generate(["part", "partsupp"])
    part, partsupp = database["part"], database["partsupp"]
    part_s = Relation.from_values(
        "part_s",
        Schema.of("p_partkey:str", "p_brand:str", "p_size:int"),
        [(f"PK{r['p_partkey']:08d}", r["p_brand"], r["p_size"]) for r in part],
    )
    partsupp_s = Relation.from_values(
        "partsupp_s",
        Schema.of("ps_partkey:str", "ps_suppkey:int", "ps_supplycost:float"),
        [(f"PK{r['ps_partkey']:08d}", r["ps_suppkey"], r["ps_supplycost"]) for r in partsupp],
    )
    catalog = DataSourceCatalog()
    for relation in (part, partsupp, part_s, partsupp_s):
        catalog.register_source(DataSource(relation.name, relation, lan()))

    def run(join_cls, left, right, **kwargs):
        sources = [catalog.source(name) for name in (left, right)]
        state = sum(s.cardinality * s.exported_schema.encoded_row_size for s in sources)

        def build(context):
            return join_cls(
                "join", context, WrapperScan("l", context, left), WrapperScan("r", context, right),
                [f"{left}.p_partkey"], [f"{right}.ps_partkey"],
                memory_limit_bytes=state // 3, **kwargs,
            )

        config = dict(disk_page_read_ms=1.0, disk_page_write_ms=1.2)
        with recording_calls(BucketedHashTable, "flush_bucket") as flushes:
            rows, context, _ = drive_join(
                build, catalog, "columnar", batch_size=batch_size, **config
            )
        stats = context.disk.stats
        return {
            # "l8 r8 ...": the table's side (left / right / inner) and the bucket.
            "victims": " ".join(
                f"{args[0].name[5]}{args[1]}" for args, _, flushed in flushes if flushed
            ),
            "bytes_written": stats.bytes_written,
            "pages": [stats.pages_written, stats.pages_read],
            "overflow_events": context.stats.operator("join").overflow_events,
            "clock": context.clock.now,
            "rows": len(rows),
            "multiset": digest(sorted(multiset(rows).items())),
            "first_arrival": rows[0].arrival,
        }

    left_flush, symmetric = OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH
    return {
        "dpj_left": run(DoublePipelinedJoin, "part", "partsupp", overflow_method=left_flush),
        "dpj_symmetric": run(DoublePipelinedJoin, "part", "partsupp", overflow_method=symmetric),
        "hybrid": run(HybridHashJoin, "part", "partsupp"),
        "dpj_left_str": run(DoublePipelinedJoin, "part_s", "partsupp_s", overflow_method=left_flush),
    }
