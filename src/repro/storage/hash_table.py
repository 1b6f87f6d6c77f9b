"""Bucketed, spillable hash tables over one table-wide column arena.

Both the hybrid hash join and the double pipelined join build their inputs
into a :class:`BucketedHashTable`.  Its resident rows live in *one*
append-only column arena (a :class:`~repro.storage.columns.ColumnarPartition`
— one typed or dict-coded column per attribute plus the arrival list); a
bucket is what the paper's overflow resolution needs per bucket: its ``key ->
arena positions`` index, a resident row count, ``flushed``, and the
:class:`~repro.storage.disk.SpillLedger` of what it has on disk.  An insert
costs what it changes — one key-index entry per row, then one ``extend`` per
column — and a probe is a key pass producing positions followed by one
C-level gather per column, so neither direction materializes
:class:`~repro.storage.tuples.Row` objects or runs Python bytecode per cell.
Spilled rows live the same way, in *one* append-only spill log per table (an
:class:`~repro.storage.disk.OverflowFile` that tags each row with its
bucket): a flush gathers its buckets' rows (ascending positions *are*
insertion order) into one tagged chunk and reclaims their arena slots, and
the rows a run segment sends to flushed buckets are one gather per column
however many buckets they scatter over — every byte and page being what one
file per bucket would charge.  The table charges every resident row's columnar
byte estimate — :meth:`Schema.encoded_row_size` by default (string columns
dictionary-encode; dictionary entries charge once per table as they are
first inserted), :meth:`Schema.columnar_row_size` with ``encoded=False`` —
against a :class:`~repro.storage.memory.MemoryBudget`, so the join operators
discover memory pressure exactly when the paper's engine would — identically
in all three drive modes, because the table's representation never changes
with the drive.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from operator import or_
from typing import Any, Iterator, Sequence
from zlib import crc32

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.columns import (
    DICT_SLOT_BYTES,
    ColumnarPartition,
    DictColumn,
    as_values,
    empty_like,
    extend_moving,
    make_dictionaries,
    picker,
)
from repro.storage.disk import OverflowFile, SimulatedDisk, SpillChunk, SpillLedger
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder, Row

#: Default bucket count; the paper's engine sized this from optimizer hints.
DEFAULT_BUCKET_COUNT = 64


def bucket_of(key: tuple[Any, ...], bucket_count: int) -> int:
    """Deterministic bucket assignment for a join key.

    Uses the builtin ``hash`` — fastest available, and perfectly fine for
    *intra-process* buckets.  It is NOT stable across processes for strings
    (``PYTHONHASHSEED`` randomization); anything that partitions across
    process boundaries must use :func:`stable_bucket_of` instead.
    """
    return hash(key) % bucket_count


def _adopted_codes(dictionary, source: Sequence[Any], pick):
    """Codes under an adopted ``dictionary`` of the values ``pick`` takes from ``source``.

    A column sharing the dictionary holds them already; any other source (a
    transposed row-backed run, a tie-step row) looks its values up, ``None``
    for a value the dictionary does not know — so every drive charges an
    entry at the first insert that references it.
    """
    if type(source) is DictColumn and source.dictionary is dictionary:
        return pick(source.codes)
    return map(dictionary.codes.get, pick(as_values(source)))


def _stable_key_bytes(key: tuple[Any, ...]) -> bytes:
    """A canonical byte encoding of a join key, equal iff the keys route equal.

    Each value is tagged with its type so ``1`` and ``"1"`` never collide,
    except that floats with integral values encode as their int twin —
    builtin ``hash(1.0) == hash(1)``, and mixed int/float key columns must
    keep routing rows with equal keys to the same lane.
    """
    parts: list[bytes] = []
    for value in key:
        if isinstance(value, bool):
            parts.append(b"b1" if value else b"b0")
        elif isinstance(value, int):
            parts.append(b"i" + str(value).encode("ascii"))
        elif isinstance(value, float):
            if value.is_integer():
                parts.append(b"i" + str(int(value)).encode("ascii"))
            else:
                parts.append(b"f" + repr(value).encode("ascii"))
        elif isinstance(value, str):
            parts.append(b"s" + value.encode("utf-8", "surrogatepass"))
        elif value is None:
            parts.append(b"n")
        else:
            parts.append(b"o" + repr(value).encode("utf-8", "surrogatepass"))
    return b"\x1f".join(parts)


def stable_bucket_of(key: tuple[Any, ...], bucket_count: int) -> int:
    """Process-stable bucket assignment (exchange lane routing).

    ``zlib.crc32`` over a canonical byte encoding: identical across runs,
    interpreters, and processes regardless of ``PYTHONHASHSEED``, so a
    parent routing batches and a lane worker checking its share always
    agree.
    """
    return crc32(_stable_key_bytes(key)) % bucket_count


class Bucket(SpillLedger):
    """One hash bucket: the key index of its resident rows plus the ledger of
    its spilled ones.

    ``positions`` maps each join key to the arena positions holding it, in
    insertion order; ``resident_count`` is the number of positions indexed.
    """

    __slots__ = ("index", "positions", "resident_count", "flushed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.positions: dict[tuple[Any, ...], list[int]] = {}
        self.resident_count = 0
        self.flushed = False

    def add(self, key: tuple[Any, ...], position: int) -> None:
        """Index one more resident row (the row-at-a-time insert paths)."""
        found = self.positions.get(key)
        if found is None:
            self.positions[key] = [position]
        else:
            found.append(position)
        self.resident_count += 1


class BucketedHashTable:
    """A hash table over join keys with per-bucket spill support.

    Parameters
    ----------
    key_names:
        Attribute names forming the hash key.
    budget:
        Memory budget charged for resident rows (columnar byte estimates).
    disk:
        Where the table's spill log is created.
    bucket_count:
        Number of hash buckets.
    name:
        Used in the spill log's name and error messages.
    schema:
        Schema of the stored rows; fixes the arena's typed column layout
        and the per-row byte charge.  When omitted it is adopted from the
        first inserted row or batch.
    encoded:
        When true (the default, matching ``EngineConfig.encoded_columns``),
        the arena dictionary-encodes string columns over *table-owned*
        dictionaries — so flushed chunks stay code-compatible and each
        distinct value is stored (and charged) once per table — and
        resident rows charge
        :attr:`Schema.encoded_row_size`.  Dictionary growth is force-charged
        to the budget as it happens (it cannot be refused row by row) and
        counted in :attr:`resident_bytes`, so the budget invariant
        ``budget.used == sum(resident_bytes)`` holds in encoded bytes.

    A value that does not fit its typed or dict-coded column degrades the
    *table's* column to an object list (there is one column per attribute,
    not one per bucket), and every chunk flushed afterwards carries — and is
    charged for — the plain representation.
    """

    def __init__(
        self,
        key_names: Sequence[str],
        budget: MemoryBudget,
        disk: SimulatedDisk,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        name: str = "hash",
        schema: Schema | None = None,
        encoded: bool = True,
    ) -> None:
        if bucket_count <= 0:
            raise StorageError(f"bucket count must be positive, got {bucket_count}")
        self.key_names = tuple(key_names)
        self.budget = budget
        self.disk = disk
        self.bucket_count = bucket_count
        self.name = name
        self.schema = schema
        self.encoded = encoded
        self.row_bytes = schema.row_size_for(encoded) if schema is not None else 0
        self.buckets = [Bucket(i) for i in range(bucket_count)]
        self.total_inserted = 0
        self.flushed_count = 0
        self._binder = KeyBinder(self.key_names)
        self.dictionary_bytes = 0
        self._dictionaries = None
        #: ``[(slot, dictionary, seen_codes)]`` for slots whose dictionary
        #: was adopted from the insert stream and ``[(slot, dictionary)]``
        #: for the table-owned ones (see ``_fix_dictionaries``).
        self._adopted_slots: list | None = None
        self._owned_slots: list | None = None
        #: The column arena every bucket indexes into (built on first
        #: insert), and how many of its slots belong to flushed buckets and
        #: await compaction.
        self.arena: ColumnarPartition | None = None
        self._dead = 0
        #: Every spilled row of every bucket, in write order.
        self.spill_log: OverflowFile = disk.create_file(f"{name}-spill", schema=schema)

    def _fix_dictionaries(self, source_columns: Sequence | None) -> None:
        """Fix the table's per-slot dictionaries on first insert.

        Dict-encodable slots *adopt* the insert stream's dictionary when the
        first insert arrives as columns carrying one (all later inserts from
        the same scan then move raw codes — no re-encoding); slots with no
        donor get table-owned dictionaries whose growth hook charges the
        budget at encode time.  Either way, growth is a side effect of value
        encoding and cannot be refused row by row, so it force-charges past
        the limit — the elevated usage simply brings the next row refusal
        (the overflow signal) forward.  Adopted slots charge each entry at
        the first *insert* referencing it (tracked per code), which is the
        same logical point an owned dictionary charges at, so byte totals
        and overflow positions agree across drive modes.
        """
        dictionaries = make_dictionaries(self.schema)
        adopted: list = []
        owned: list = []
        for j, dictionary in enumerate(dictionaries):
            if dictionary is None:
                continue
            source = source_columns[j] if source_columns is not None else None
            if type(source) is DictColumn:
                dictionaries[j] = source.dictionary
                adopted.append((j, source.dictionary, set()))
            else:
                dictionary.on_grow = self._record_dictionary_growth
                owned.append((j, dictionary))
        self._dictionaries = dictionaries
        self._adopted_slots = adopted
        self._owned_slots = owned

    def _record_dictionary_growth(self, nbytes: int) -> None:
        self.budget.force_reserve(nbytes)
        self.dictionary_bytes += nbytes

    def _charge_adopted(self, source_columns: Sequence, position: int) -> None:
        """Charge adopted-dictionary entries first referenced by this insert."""
        for j, dictionary, seen in self._adopted_slots:
            source = source_columns[j]
            if type(source) is DictColumn and source.dictionary is dictionary:
                code = source.codes[position]
            else:
                code = dictionary.codes.get(source[position])
            if code is not None and code not in seen:
                seen.add(code)
                self._record_dictionary_growth(dictionary.entry_bytes(code))

    # -- schema / arena plumbing --------------------------------------------------

    def _adopt_schema(self, schema: Schema) -> None:
        if self.schema is None:
            self.schema = self.spill_log.schema = schema
            self.row_bytes = schema.row_size_for(self.encoded)

    def _arena(self) -> ColumnarPartition:
        store = self.arena
        if store is None:
            if self.schema is None:
                raise StorageError(f"{self.name}: schema unknown before first insert")
            if self.encoded and self._dictionaries is None:
                self._fix_dictionaries(None)
            store = self.arena = ColumnarPartition(
                self.schema, self.encoded, self._dictionaries
            )
        return store

    # -- basic operations --------------------------------------------------------

    def key_for(self, row: Row) -> tuple[Any, ...]:
        return self._binder.key(row)

    def key_indices_in(self, schema: Schema) -> tuple[int, ...]:
        """Positions of the key attributes in ``schema`` (for bulk extraction)."""
        return self._binder.indices_in(schema)

    def bucket_for_key(self, key: tuple[Any, ...]) -> Bucket:
        return self.buckets[hash(key) % self.bucket_count]

    def insert(self, row: Row, marked: bool = False, key: tuple[Any, ...] | None = None) -> bool:
        """Insert ``row``.

        Returns ``True`` when the row is resident in memory, ``False`` when it
        went straight to the spill log (because the bucket was
        already flushed) or when the memory budget refused the reservation.
        A ``False`` return with an un-flushed bucket signals the caller that
        its overflow strategy must run before retrying.  Callers that already
        computed the row's join key may pass it to skip recomputation.
        """
        self._adopt_schema(row.schema)
        if key is None:
            key = self._binder.key(row)
        bucket = self.buckets[hash(key) % self.bucket_count]
        self.total_inserted += 1
        if bucket.flushed:
            self.spill_log.write(row, marked, bucket)
            return False
        if not self.budget.try_reserve(self.row_bytes):
            self.total_inserted -= 1
            return False
        store = self._arena()
        store.append_values(row.values, row.arrival)
        bucket.add(key, len(store.arrivals) - 1)
        return True

    def insert_position(
        self,
        bucket_index: int,
        key: tuple[Any, ...],
        source_columns: Sequence[Sequence[Any]],
        position: int,
        arrival: float,
    ) -> bool:
        """Insert one row by position from batch/run columns — no row boxing.

        Returns ``False`` when the memory budget refuses (the caller runs its
        overflow strategy and retries); the bucket must not be flushed.
        """
        if not self.budget.try_reserve(self.row_bytes):
            return False
        if self.encoded and self._dictionaries is None:
            self._fix_dictionaries(source_columns)
        store = self._arena()
        store.append_position(source_columns, position, arrival)
        self.buckets[bucket_index].add(key, len(store.arrivals) - 1)
        if self._adopted_slots:
            self._charge_adopted(source_columns, position)
        self.total_inserted += 1
        return True

    def insert_batch(
        self,
        batch: Batch,
        marked: bool = False,
        keys: Sequence[tuple[Any, ...]] | None = None,
        start: int = 0,
        stop: int | None = None,
        positions: Sequence[int] | None = None,
    ) -> int:
        """Bulk-insert ``batch`` rows ``[start, stop)``; returns the stop position.

        A return equal to ``stop`` (``len(batch)`` by default) means every
        row was handled.  Rows whose bucket is already flushed go straight to
        the spill log (they count as handled, exactly as in :meth:`insert`).
        On the first memory refusal for a resident insert, the refused row's
        position is returned so the caller can run its overflow strategy and
        retry from there.

        ``positions`` (ascending, inside ``[start, stop)``) names the rows to
        insert when the caller has already routed the others elsewhere — the
        double pipelined join spills the rows of flushed buckets itself; none
        of the named rows may hash to a flushed bucket.

        When the rows fit the budget they move in one key pass plus one
        ``extend`` per column (the bulk fast path); otherwise they go row by
        row.  The bounded forms (``stop`` / ``positions``) decide "fit"
        *including* the dictionary entries the rows will add, so a refusal
        lands on exactly the row where the tuple-at-a-time path refuses; the
        whole-remainder form keeps the hybrid build's batch-granular check
        (growth inside the batch is charged after the fact, identically in
        both batch drives) until a bucket is flushed — from then on rows of
        flushed buckets are split off and spilled in one segment write, and
        the live ones are decided exactly as well.
        """
        self._adopt_schema(batch.schema)
        if keys is None:
            keys = batch.key_tuples(self._binder.indices_in(batch.schema))
        exact = stop is not None or positions is not None
        n = len(batch) if stop is None else stop
        rows = range(start, n) if positions is None else positions
        if not rows:
            return n
        columns = batch.columns
        arrivals = batch.arrivals
        if self.encoded and self._dictionaries is None:
            self._fix_dictionaries(columns)
        spills = None
        if positions is None and self.flushed_count:
            rows, spills = self.split_flushed(keys, rows)
            exact = True
        if rows and self._reserve_rows(columns, rows, exact):
            self._scatter_rows(columns, arrivals, keys, rows)
            self.total_inserted += len(rows)
        else:
            count = self.bucket_count
            buckets = self.buckets
            row_bytes = self.row_bytes
            budget = self.budget
            adopted = self._adopted_slots
            store = self._arena()
            for i in rows:
                if not budget.try_reserve(row_bytes):
                    n = i
                    break
                self.total_inserted += 1
                store.append_position(columns, i, arrivals[i])
                key = keys[i]
                buckets[hash(key) % count].add(key, len(store.arrivals) - 1)
                if adopted:
                    self._charge_adopted(columns, i)
        if spills:
            self.total_inserted += self.spill_segment(columns, arrivals, spills, marked, n)
        return n

    def split_flushed(
        self,
        keys: Sequence[tuple[Any, ...]],
        rows: Sequence[int],
        twin: "BucketedHashTable | None" = None,
        first_only: bool = False,
    ) -> tuple[list[int], dict[int, list[int]]]:
        """``rows`` split into those of resident buckets and, per flushed
        bucket, the rows that must spill.  A bucket flushed in ``twin`` (the
        double pipelined join's other table, same bucket count) counts as
        flushed too; ``first_only`` ends the split after the first spilling row.
        """
        count = self.bucket_count
        flushed = [bucket.flushed for bucket in self.buckets]
        if twin is not None:
            flushed = list(map(or_, flushed, [bucket.flushed for bucket in twin.buckets]))
        live: list[int] = []
        spills: dict[int, list[int]] = {}
        for i in rows:
            index = hash(keys[i]) % count
            if flushed[index]:
                found = spills.get(index)
                if found is None:
                    spills[index] = [i]
                else:
                    found.append(i)
                if first_only:
                    break
            else:
                live.append(i)
        return live, spills

    def _reserve_rows(self, columns: Sequence, rows: Sequence[int], exact: bool) -> bool:
        """Reserve ``rows`` in one step if the budget takes them all.

        Adopted-dictionary entries first referenced by these rows are charged
        here (the bulk form of the per-insert adopted charge); table-owned
        dictionaries charge through their growth hook as the scatter encodes.
        With ``exact`` the reservation is refused unless the rows *and* the
        dictionary entries they add fit — which is when no row of a
        tuple-at-a-time insert would have been refused either, because usage
        only grows in between.
        """
        budget = self.budget
        need = len(rows) * self.row_bytes
        if budget.would_overflow(need):
            return False
        fresh_codes = []
        growth = 0
        pick = picker(rows)
        try:
            for j, dictionary, seen in self._adopted_slots or ():
                fresh = set(_adopted_codes(dictionary, columns[j], pick)) - seen
                fresh.discard(None)
                if fresh:
                    nbytes = sum(map(dictionary.entry_bytes, fresh))
                    fresh_codes.append((seen, fresh, nbytes))
                    growth += nbytes
            if exact and budget.limit_bytes is not None:
                for j, dictionary in self._owned_slots or ():
                    fresh = set(pick(as_values(columns[j]))).difference(dictionary.codes)
                    growth += sum(
                        len(value) + DICT_SLOT_BYTES for value in fresh if type(value) is str
                    )
        except TypeError:
            return False  # an unhashable misfit: the row-by-row path degrades it
        if budget.would_overflow(need + growth):
            return False
        budget.reserve(need)
        for seen, fresh, nbytes in fresh_codes:
            seen |= fresh
            self._record_dictionary_growth(nbytes)
        return True

    def _scatter_rows(
        self,
        columns: Sequence[Sequence[Any]],
        arrivals: Sequence[float],
        keys: Sequence[tuple[Any, ...]],
        rows: Sequence[int],
    ) -> None:
        """Move already-reserved ``rows`` into the arena.

        Key-major first — one pass numbers the rows ``base, base + 1, …`` and
        enters each in its bucket's key index, the only per-row work — then
        one ``extend`` per column (:meth:`ColumnarPartition.extend_rows`).
        """
        bucket_count = self.bucket_count
        buckets = self.buckets
        store = self._arena()
        position = len(store.arrivals)
        for i in rows:
            key = keys[i]
            bucket = buckets[hash(key) % bucket_count]
            found = bucket.positions.get(key)
            if found is None:
                bucket.positions[key] = [position]
            else:
                found.append(position)
            bucket.resident_count += 1
            position += 1
        store.extend_rows(columns, arrivals, rows)

    def insert_resident(self, row: Row) -> None:
        """Insert assuming memory is available; raises if the budget refuses."""
        if not self.insert(row):
            raise StorageError(
                f"{self.name}: failed to insert resident row (budget exhausted "
                f"or bucket flushed)"
            )

    # -- probing -------------------------------------------------------------------

    def probe(self, key: tuple[Any, ...]) -> list[Row]:
        """Resident rows matching ``key``, boxed (the tuple-at-a-time view)."""
        matched = self.match_positions(key)
        if matched is None:
            return []
        store, positions = matched
        return [store.row_at(i) for i in positions]

    def probe_row(self, row: Row, key_names: Sequence[str]) -> list[Row]:
        """Probe using ``row``'s values of ``key_names`` as the key."""
        return self.probe(row.key(key_names))

    def match_positions(
        self, key: tuple[Any, ...]
    ) -> tuple[ColumnarPartition, list[int]] | None:
        """Resident matches as ``(arena, positions)`` — no row boxing."""
        positions = self.buckets[hash(key) % self.bucket_count].positions.get(key)
        if not positions:
            return None
        return self.arena, positions

    def gather_matches(
        self,
        keys: Sequence[tuple[Any, ...]],
        positions: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> tuple[list[int], list[list[Any]], list[float], bool] | None:
        """Bulk probe: gathered match columns for the joins' output assembly.

        Probes ``keys`` (restricted to the probed ``positions`` when given)
        and returns ``(take, match_columns, match_arrivals, aligned)`` —
        ``take[i]`` is the probed position whose key produced match ``i``,
        and the matched build rows arrive as already-gathered column lists.
        ``aligned`` is true when every key matched exactly once (``take`` is
        the identity permutation).  ``None`` when nothing matched.

        With ``limit`` the probe stops after the key whose matches bring the
        total to ``limit`` or more (that key's matches are all included), so
        ``take[-1]`` names the last key a tuple-at-a-time probe filling a
        ``limit``-row batch would have consumed.

        Key-major lookup, then column-major gathers: one pass over the keys
        records each match's probed position and arena position; the output
        columns are then one shared C-level gather applied per column
        (:meth:`ColumnarPartition.gather_rows`; dictionary columns move codes).
        """
        bucket_count = self.bucket_count
        buckets = self.buckets
        probe = range(len(keys)) if positions is None else positions
        take: list[int] = []
        at: list[int] = []
        once = True
        for position in probe:
            key = keys[position]
            found = buckets[hash(key) % bucket_count].positions.get(key)
            if not found:
                continue
            if len(found) == 1:
                take.append(position)
                at.append(found[0])
            else:
                once = False
                take.extend(repeat(position, len(found)))
                at.extend(found)
            if limit is not None and len(take) >= limit:
                break
        if not take:
            return None
        aligned = once and len(take) == len(keys) == len(probe)
        return take, *self.arena.gather_rows(at), aligned

    def is_bucket_flushed_for(self, key: tuple[Any, ...]) -> bool:
        return self.bucket_for_key(key).flushed

    # -- flushing ----------------------------------------------------------------

    def spill_position(
        self,
        bucket_index: int,
        source_columns: Sequence[Sequence[Any]],
        position: int,
        arrival: float,
        marked: bool,
    ) -> None:
        """Write one arriving row straight to the spill log."""
        self.spill_log.write_position(
            source_columns, position, arrival, marked, self.buckets[bucket_index]
        )

    def spill_segment(
        self,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        spills: dict[int, list[int]],
        marked: bool,
        stop: int | None = None,
    ) -> int:
        """Write the arriving rows ``spills`` names per bucket (ascending
        positions, those from ``stop`` on left out) to the spill log in one
        write — one gather per column; returns how many were written."""
        indices: list[int] = []
        groups = []
        for index, found in spills.items():
            if stop is not None and found[-1] >= stop:
                found = found[: bisect_left(found, stop)]
            if found:
                indices += found
                groups.append((self.buckets[index], len(found)))
        self.spill_log.write_gather(source_columns, source_arrivals, indices, marked, groups)
        return len(indices)

    def _bucket_positions(self, bucket: Bucket) -> Sequence[int]:
        """``bucket``'s arena positions, ascending — which is its insertion
        order — as a range when they are contiguous."""
        rows = sorted(chain.from_iterable(bucket.positions.values()))
        if rows and rows[-1] - rows[0] + 1 == len(rows):
            return range(rows[0], rows[-1] + 1)
        return rows

    def bucket_rows(self, index: int) -> tuple[list, list[float]]:
        """Bucket ``index``'s resident rows as ``(columns, arrivals)``, in
        insertion order, gathered out of the arena (storage classes kept)."""
        if self.arena is None:
            return [[] for _ in self.schema or ()], []
        return self.arena.gather_rows(self._bucket_positions(self.buckets[index]))

    def flush_bucket(self, index: int, mark_rows: bool = False) -> int:
        """Write bucket ``index`` to disk, releasing its memory.

        Returns the number of rows flushed.  Subsequent inserts into this
        bucket go directly to the spill log.
        """
        return self._flush((self.buckets[index],), mark_rows)

    def _flush(self, victims: Sequence[Bucket], mark_rows: bool) -> int:
        """Flush ``victims`` in one step: one arena gather ordered by bucket,
        one tagged write.  Counters and budget move atomically — key indexes
        detached, arena slots reclaimed and resident bytes released *before*
        the spill write, so no observer can see a half-drained bucket or
        double-release its bytes.
        """
        parts = []
        groups = []
        for bucket in victims:
            if bucket.resident_count:
                parts.append(self._bucket_positions(bucket))
                groups.append((bucket, bucket.resident_count))
                bucket.positions = {}
                bucket.resident_count = 0
            if not bucket.flushed:
                bucket.flushed = True
                self.flushed_count += 1
        if not parts:
            return 0
        rows = parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))
        columns, arrivals = self.arena.gather_rows(rows)
        self._reclaim(rows)
        self.budget.release(len(rows) * self.row_bytes)
        self.spill_log.write_columns(columns, arrivals, mark_rows, groups)
        return len(rows)

    def _reclaim(self, rows: Sequence[int]) -> None:
        """Give back the arena slots ``rows`` of a bucket just detached.

        The arena's tail is truncated; slots in the middle stay behind as
        dead rows until they outnumber the live ones, when the survivors are
        compacted (one gather per column, one renumbering pass over the key
        indexes).  A bucket flushes at most once per fill, so reclaiming is
        amortised O(rows ever inserted).
        """
        store = self.arena
        if type(rows) is range and rows.stop == len(store.arrivals):
            for column in store.columns:
                del column[rows.start :]
            del store.arrivals[rows.start :]
        else:
            self._dead += len(rows)
        dead = self._dead
        if dead <= len(store.arrivals) - dead:
            return
        live = sorted(
            chain.from_iterable(
                chain.from_iterable(bucket.positions.values()) for bucket in self.buckets
            )
        )
        store.columns, store.arrivals = store.gather_rows(live)
        renumber = dict(zip(live, range(len(live)))).__getitem__
        for bucket in self.buckets:
            for found in bucket.positions.values():
                found[:] = map(renumber, found)
        self._dead = 0

    def flush_largest_bucket(self, mark_rows: bool = False) -> int | None:
        """Flush the resident bucket holding the most bytes; returns its index."""
        victim: Bucket | None = None
        victim_count = 0
        for bucket in self.buckets:
            if bucket.flushed:
                continue
            count = bucket.resident_count
            if count > victim_count:
                victim, victim_count = bucket, count
        if victim is None:
            return None
        self.flush_bucket(victim.index, mark_rows)
        return victim.index

    def flush_all(self, mark_rows: bool = False) -> int:
        """Flush every bucket (one gather, one write); returns rows flushed."""
        return self._flush(self.buckets, mark_rows)

    # -- inspection ---------------------------------------------------------------

    @property
    def resident_rows(self) -> int:
        return sum(b.resident_count for b in self.buckets)

    @property
    def resident_bytes(self) -> int:
        """Bytes this table holds against its budget.

        Rows charge the (encoding-dependent) per-row estimate; encoded
        tables additionally hold their dictionaries resident, which stay
        charged across bucket flushes (spilled chunks keep referencing the
        table dictionaries, and any entry may recur in later inserts).
        """
        return self.resident_rows * self.row_bytes + self.dictionary_bytes

    @property
    def flushed_buckets(self) -> list[int]:
        if not self.flushed_count:
            return []
        return [b.index for b in self.buckets if b.flushed]

    @property
    def has_resident_data(self) -> bool:
        return any(b.resident_count > 0 for b in self.buckets)

    def resident_items(self) -> Iterator[Row]:
        """All resident rows, bucket by bucket (boxed; tests and debugging)."""
        for bucket in self.buckets:
            if bucket.resident_count:
                batch = Batch.from_columns(self.schema, *self.bucket_rows(bucket.index))
                # repro: allow[hot-path-row] boxed inspection view, tests/debugging only
                yield from batch.rows()

    def overflow_store(self) -> tuple[list, list[float], list[bool], dict[int, list[int]], Any]:
        """Every row overflow resolution joins, as one positional store.

        ``(columns, arrivals, marked, rows, keys)``: the merged spill log
        followed by a copy of the arena (resident rows are unmarked), storage
        classes kept; ``rows[i]`` is bucket ``i``'s positions — spilled rows
        in write order, then resident ones in insertion order; ``keys`` each
        row's join key (the key column itself when there is one: no tuples).
        Free of charge: readers charge buckets via ``spill_log.charge_read``.
        """
        log = self.spill_log.read_log()
        rows = dict(log.groups) if log is not None else {}
        parts = [part for part in (log, self.arena) if part is not None and len(part)]
        if not parts:
            return [], [], [], rows, ()
        columns = [empty_like(column) for column in parts[0].columns]
        arrivals: list[float] = []
        for part in parts:
            for j, column in enumerate(part.columns):
                extend_moving(columns, j, column, len(arrivals))
            arrivals.extend(part.arrivals)
        spilled = len(log) if log is not None else 0
        marked = (log.marked if spilled else []) + [False] * (len(arrivals) - spilled)
        for bucket in self.buckets:
            if bucket.resident_count:
                at = map(spilled.__add__, self._bucket_positions(bucket))
                rows[bucket.index] = [*rows.get(bucket.index, ()), *at]
        keys = [as_values(columns[j]) for j in self._binder.indices_in(self.schema)]
        return columns, arrivals, marked, rows, keys[0] if len(keys) == 1 else list(zip(*keys))

    def overflow_chunks(self, index: int) -> Iterator[SpillChunk]:
        """Read back bucket ``index``'s spilled rows as one columnar chunk."""
        return self.spill_log.read_chunks(self.buckets[index])

    def overflow_rows(self, index: int) -> Iterator[tuple[Row, bool]]:
        """Read back bucket ``index``'s spilled rows (charging read I/O)."""
        return self.spill_log.read(self.buckets[index])

    def check_accounting(self) -> None:
        """Raise unless the budget's usage covers this table's resident bytes.

        The invariant asserted by the overflow tests: resident bytes are an
        exact multiple of the columnar row estimate, and never exceed what
        the budget believes is reserved (for a budget shared across tables,
        the *sum* of the tables' resident bytes must equal the reservation —
        callers with sole ownership can assert equality).
        """
        resident = self.resident_bytes
        if resident > self.budget.used_bytes:
            raise StorageError(
                f"{self.name}: accounting drift — resident {resident}B exceeds "
                f"budget reservation {self.budget.used_bytes}B"
            )
        slots = len(self.arena) if self.arena is not None else 0
        indexed = [p for b in self.buckets for found in b.positions.values() for p in found]
        if (
            len(indexed) != self.resident_rows
            or self.resident_rows != slots - self._dead
            or len(set(indexed)) != len(indexed)
            or any(not 0 <= p < slots for p in indexed)
        ):
            raise StorageError(
                f"{self.name}: arena drift — {self.resident_rows} resident rows, "
                f"{len(indexed)} indexed, {slots} slots of which {self._dead} dead"
            )

    def release_all(self) -> None:
        """Drop all resident rows and return their memory to the budget."""
        resident = self.resident_rows
        for bucket in self.buckets:
            bucket.positions = {}
            bucket.resident_count = 0
        self.arena = None
        self._dead = 0
        if resident:
            self.budget.release(resident * self.row_bytes)
        if self.dictionary_bytes:
            self.budget.release(self.dictionary_bytes)
            self.dictionary_bytes = 0
