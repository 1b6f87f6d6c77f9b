"""Bucketed, spillable hash tables over columnar partitions.

Both the hybrid hash join and the double pipelined join build their inputs
into a :class:`BucketedHashTable`: a fixed number of buckets, each holding a
columnar partition (:class:`~repro.storage.columns.ColumnarPartition` — one
typed column per attribute, a parallel arrival list, and a ``key -> row
positions`` index) in memory until its owner decides to flush it to a
:class:`~repro.storage.disk.OverflowFile`.  Inserts append column values and
probes return gather positions, so neither direction materializes
:class:`~repro.storage.tuples.Row` objects; flushes move whole column sets to
disk as one spill chunk.  The table charges every resident row's columnar
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

from array import array
from itertools import repeat
from typing import Any, Iterator, Sequence
from zlib import crc32

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.columns import (
    DICT_SLOT_BYTES,
    _DEGRADE_ERRORS,
    ColumnarPartition,
    DictColumn,
    RunLengthArrivals,
    append_value,
    as_values,
    make_dictionaries,
)
from repro.storage.disk import OverflowFile, SimulatedDisk, SpillChunk
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


def _pick(values: Sequence[Any], rows: Sequence[int]):
    """``values`` at ``rows``: a slice for a contiguous range, else a lazy gather."""
    if type(rows) is range:
        return values[rows.start : rows.stop]
    return map(values.__getitem__, rows)


def _adopted_codes(dictionary, source: Sequence[Any], rows: Sequence[int]):
    """Codes under an adopted ``dictionary`` of ``source``'s values at ``rows``.

    A column sharing the dictionary holds them already; any other source (a
    transposed row-backed run, a tie-step row) looks its values up, ``None``
    for a value the dictionary does not know — so every drive charges an
    entry at the first insert that references it.
    """
    if type(source) is DictColumn and source.dictionary is dictionary:
        return iter(_pick(source.codes, rows))
    return map(dictionary.codes.get, _pick(as_values(source), rows))


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


class Bucket:
    """One hash bucket: a resident columnar partition plus optional overflow."""

    __slots__ = ("index", "partition", "overflow", "flushed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.partition: ColumnarPartition | None = None
        self.overflow: OverflowFile | None = None
        self.flushed = False

    @property
    def resident_count(self) -> int:
        return len(self.partition.arrivals) if self.partition is not None else 0

    def match(self, key: tuple[Any, ...]) -> list[int] | None:
        """Resident row positions holding ``key`` (None for a miss)."""
        if self.partition is None:
            return None
        return self.partition.positions.get(key)


class BucketedHashTable:
    """A hash table over join keys with per-bucket spill support.

    Parameters
    ----------
    key_names:
        Attribute names forming the hash key.
    budget:
        Memory budget charged for resident rows (columnar byte estimates).
    disk:
        Destination for flushed buckets.
    bucket_count:
        Number of hash buckets.
    name:
        Used in overflow file names and error messages.
    schema:
        Schema of the stored rows; fixes the partitions' typed column layout
        and the per-row byte charge.  When omitted it is adopted from the
        first inserted row or batch.
    encoded:
        When true (the default, matching ``EngineConfig.encoded_columns``),
        partitions dictionary-encode string columns over *table-owned*
        dictionaries shared by every bucket — so flushed chunks stay
        code-compatible and each distinct value is stored (and charged)
        once per table — and resident rows charge
        :attr:`Schema.encoded_row_size`.  Dictionary growth is force-charged
        to the budget as it happens (it cannot be refused row by row) and
        counted in :attr:`resident_bytes`, so the budget invariant
        ``budget.used == sum(resident_bytes)`` holds in encoded bytes.
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
            code = next(_adopted_codes(dictionary, source_columns[j], (position,)))
            if code is not None and code not in seen:
                seen.add(code)
                self._record_dictionary_growth(dictionary.entry_bytes(code))

    # -- schema / partition plumbing ----------------------------------------------

    def _adopt_schema(self, schema: Schema) -> None:
        if self.schema is None:
            self.schema = schema
            self.row_bytes = schema.row_size_for(self.encoded)

    def _partition(self, bucket: Bucket) -> ColumnarPartition:
        partition = bucket.partition
        if partition is None:
            if self.schema is None:
                raise StorageError(f"{self.name}: schema unknown before first insert")
            if self.encoded and self._dictionaries is None:
                self._fix_dictionaries(None)
            partition = bucket.partition = ColumnarPartition(
                self.schema, self.encoded, self._dictionaries
            )
        return partition

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
        went straight to the bucket's overflow file (because the bucket was
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
            self._ensure_overflow(bucket).write(row, marked)
            return False
        if not self.budget.try_reserve(self.row_bytes):
            self.total_inserted -= 1
            return False
        self._partition(bucket).append_values(key, row.values, row.arrival)
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
        bucket = self.buckets[bucket_index]
        if self.encoded and self._dictionaries is None:
            self._fix_dictionaries(source_columns)
        self._partition(bucket).append_position(key, source_columns, position, arrival)
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
        row was handled.  Rows whose bucket is already flushed are written
        straight to that bucket's overflow file (they count as handled,
        exactly as in :meth:`insert`).  On the first memory refusal for a
        resident insert, the refused row's position is returned so the caller
        can run its overflow strategy and retry from there.

        ``positions`` (ascending, inside ``[start, stop)``) names the rows to
        insert when the caller has already routed the others elsewhere — the
        double pipelined join spills the rows of flushed buckets itself; none
        of the named rows may hash to a flushed bucket.

        When the rows fit the budget they move in one column-major scatter
        (the bulk fast path); otherwise they go row by row.  The bounded
        forms (``stop`` / ``positions``) decide "fit" *including* the
        dictionary entries the rows will add, so a refusal lands on exactly
        the row where the tuple-at-a-time path refuses; the whole-remainder
        form keeps the hybrid build's batch-granular check (growth inside
        the batch is charged after the fact, identically in both batch
        drives).
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
        if (positions is not None or not self.flushed_count) and self._reserve_rows(
            columns, rows, exact
        ):
            self._scatter_rows(columns, arrivals, keys, rows)
            self.total_inserted += len(rows)
            return n
        count = self.bucket_count
        buckets = self.buckets
        row_bytes = self.row_bytes
        budget = self.budget
        adopted = self._adopted_slots
        for i in rows:
            key = keys[i]
            bucket = buckets[hash(key) % count]
            if bucket.flushed:
                self.total_inserted += 1
                self._ensure_overflow(bucket).write_position(
                    columns, i, arrivals[i], marked
                )
                continue
            if not budget.try_reserve(row_bytes):
                return i
            self.total_inserted += 1
            self._partition(bucket).append_position(key, columns, i, arrivals[i])
            if adopted:
                self._charge_adopted(columns, i)
        return n

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
        try:
            for j, dictionary, seen in self._adopted_slots or ():
                fresh = set(_adopted_codes(dictionary, columns[j], rows)) - seen
                fresh.discard(None)
                if fresh:
                    nbytes = sum(map(dictionary.entry_bytes, fresh))
                    fresh_codes.append((seen, fresh, nbytes))
                    growth += nbytes
            if exact and budget.limit_bytes is not None:
                for j, dictionary in self._owned_slots or ():
                    fresh = set(_pick(as_values(columns[j]), rows)).difference(dictionary.codes)
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
        """Move already-reserved ``rows`` into their buckets' partitions.

        Key-major first — one pass finds each row's partition, stamps its
        arrival and maintains the key index — then column-major: one pass per
        attribute appends each row's value (or dictionary code) to its
        partition's column, with the source and the per-row target column
        lists hoisted out of the loop.  At the default 64 buckets a 128- or
        256-row input puts two to four rows in a bucket, too few to pay for
        a gather, a typed buffer and an ``extend`` per (bucket, column).
        """
        count = self.bucket_count
        buckets = self.buckets
        if type(arrivals) is RunLengthArrivals:
            arrivals = arrivals.to_list()
        targets: list[list] = []
        for i in rows:
            key = keys[i]
            bucket = buckets[hash(key) % count]
            partition = bucket.partition
            if partition is None:
                partition = self._partition(bucket)
            stamps = partition.arrivals
            found = partition.positions.get(key)
            if found is None:
                partition.positions[key] = [len(stamps)]
            else:
                found.append(len(stamps))
            stamps.append(arrivals[i])
            targets.append(partition.columns)
        contiguous = type(rows) is range
        dictionaries = self._dictionaries
        for j, source in enumerate(columns):
            dictionary = dictionaries[j] if dictionaries is not None else None
            coded = dictionary is not None
            k = offset = 0
            try:
                if coded and not (type(source) is DictColumn and source.dictionary is dictionary):
                    # Bulk-encode through the table dictionary: one C-level
                    # map resolves every value already coded, new values
                    # take ``encode`` (which charges the growth hook).
                    picked = list(_pick(as_values(source), rows))
                    values = list(map(dictionary.codes.get, picked))
                    if None in values:
                        encode = dictionary.encode
                        for at, code in enumerate(values):
                            if code is None:
                                values[at] = encode(picked[at])
                else:
                    values = source.codes if coded else source
                    if contiguous:
                        k = offset = rows.start
                    else:
                        values = [values[i] for i in rows]
                if coded:
                    for k, target in enumerate(targets, offset):
                        target[j].codes.append(values[k])
                else:
                    for k, target in enumerate(targets, offset):
                        target[j].append(values[k])
            except (AttributeError, *_DEGRADE_ERRORS):
                # A misfit value, or a partition column already degraded to
                # an object list: finish the attribute value by value, which
                # encodes, charges and degrades as a tuple-at-a-time insert.
                for at in range(k - offset, len(targets)):
                    append_value(targets[at], j, source[rows[at]])

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
        bucket = self.bucket_for_key(key)
        positions = bucket.match(key)
        if not positions:
            return []
        partition = bucket.partition
        return [partition.row_at(i) for i in positions]

    def probe_row(self, row: Row, key_names: Sequence[str]) -> list[Row]:
        """Probe using ``row``'s values of ``key_names`` as the key."""
        return self.probe(row.key(key_names))

    def match_positions(
        self, key: tuple[Any, ...]
    ) -> tuple[ColumnarPartition, list[int]] | None:
        """Resident matches as ``(partition, positions)`` — no row boxing."""
        bucket = self.buckets[hash(key) % self.bucket_count]
        positions = bucket.match(key)
        if not positions:
            return None
        return bucket.partition, positions

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
        records, per match, the probed position, the partition holding it and
        the row inside it; each output column is then one comprehension over
        those records (dictionary columns move codes).
        """
        if self.schema is None:
            return None
        count = self.bucket_count
        buckets = self.buckets
        probe = range(len(keys)) if positions is None else positions
        take: list[int] = []
        sources: list[list] = []
        stamps: list[list[float]] = []
        at: list[int] = []
        once = True
        for position in probe:
            key = keys[position]
            partition = buckets[hash(key) % count].partition
            if partition is None:
                continue
            found = partition.positions.get(key)
            if not found:
                continue
            if len(found) == 1:
                take.append(position)
                sources.append(partition.columns)
                stamps.append(partition.arrivals)
                at.append(found[0])
            else:
                once = False
                n = len(found)
                take.extend(repeat(position, n))
                sources.extend(repeat(partition.columns, n))
                stamps.extend(repeat(partition.arrivals, n))
                at.extend(found)
            if limit is not None and len(take) >= limit:
                break
        if not take:
            return None
        dictionaries = self._dictionaries
        match_columns: list = []
        for j in range(len(self.schema)):
            if dictionaries is not None and dictionaries[j] is not None:
                try:
                    codes = [columns[j].codes[p] for columns, p in zip(sources, at)]
                except AttributeError:
                    # Some partition's column degraded to an object list:
                    # gather values instead (dict columns decode on access).
                    pass
                else:
                    match_columns.append(DictColumn(dictionaries[j], array("q", codes)))
                    continue
            match_columns.append([columns[j][p] for columns, p in zip(sources, at)])
        match_arrivals = [arrivals[p] for arrivals, p in zip(stamps, at)]
        aligned = once and len(take) == len(keys) == len(probe)
        return take, match_columns, match_arrivals, aligned

    def is_bucket_flushed_for(self, key: tuple[Any, ...]) -> bool:
        return self.bucket_for_key(key).flushed

    # -- flushing ----------------------------------------------------------------

    def _ensure_overflow(self, bucket: Bucket) -> OverflowFile:
        if bucket.overflow is None:
            bucket.overflow = self.disk.create_file(
                f"{self.name}-b{bucket.index}", schema=self.schema
            )
        return bucket.overflow

    def spill_position(
        self,
        bucket_index: int,
        source_columns: Sequence[Sequence[Any]],
        position: int,
        arrival: float,
        marked: bool,
    ) -> None:
        """Write one arriving row straight to a bucket's overflow file."""
        bucket = self.buckets[bucket_index]
        self._ensure_overflow(bucket).write_position(
            source_columns, position, arrival, marked
        )

    def spill_gather(
        self,
        bucket_index: int,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        indices: Sequence[int],
        marked: bool,
    ) -> None:
        """Write the arriving rows at ``indices`` to a bucket's overflow file
        as one chunk (the bulk form of :meth:`spill_position`)."""
        if indices:
            self._ensure_overflow(self.buckets[bucket_index]).write_gather(
                source_columns, source_arrivals, indices, marked
            )

    def flush_bucket(self, index: int, mark_rows: bool = False) -> int:
        """Write bucket ``index`` to disk, releasing its memory.

        Returns the number of rows flushed.  Subsequent inserts into this
        bucket go directly to its overflow file.  The partition's counters
        and the budget move in one atomic step — the columns are detached
        (and the resident bytes released) *before* the spill write, so no
        observer can see a half-drained bucket or double-release its bytes.
        """
        bucket = self.buckets[index]
        overflow = self._ensure_overflow(bucket)
        flushed = 0
        partition = bucket.partition
        if partition is not None and partition.arrivals:
            flushed = len(partition.arrivals)
            columns, arrivals = partition.take_data()
            self.budget.release(flushed * self.row_bytes)
            overflow.write_columns(columns, arrivals, mark_rows)
        if not bucket.flushed:
            bucket.flushed = True
            self.flushed_count += 1
        return flushed

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
        """Flush every resident bucket; returns total rows flushed."""
        total = 0
        for bucket in self.buckets:
            if bucket.resident_count > 0 or not bucket.flushed:
                total += self.flush_bucket(bucket.index, mark_rows)
        return total

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
            if bucket.partition is not None:
                # repro: allow[hot-path-row] boxed inspection view, tests/debugging only
                yield from bucket.partition.rows()

    def overflow_chunks(self, index: int) -> Iterator[SpillChunk]:
        """Read back bucket ``index``'s overflow file as columnar chunks."""
        bucket = self.buckets[index]
        if bucket.overflow is None:
            return iter(())
        return bucket.overflow.read_chunks()

    def overflow_rows(self, index: int) -> Iterator[tuple[Row, bool]]:
        """Read back bucket ``index``'s overflow file (charging read I/O)."""
        bucket = self.buckets[index]
        if bucket.overflow is None:
            return iter(())
        return bucket.overflow.read()

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

    def release_all(self) -> None:
        """Drop all resident rows and return their memory to the budget."""
        for bucket in self.buckets:
            partition = bucket.partition
            if partition is not None:
                count = len(partition.arrivals)
                if count:
                    partition.take_data()
                    self.budget.release(count * self.row_bytes)
        if self.dictionary_bytes:
            self.budget.release(self.dictionary_bytes)
            self.dictionary_bytes = 0
