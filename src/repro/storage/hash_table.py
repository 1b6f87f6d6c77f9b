"""Bucketed, spillable hash tables over one table-wide column arena.

Both the hybrid hash join and the double pipelined join build their inputs
into a :class:`BucketedHashTable`.  Its resident rows live in *one*
append-only column arena (a :class:`~repro.storage.columns.ColumnarPartition`)
whose key index is the table's one index, keyed by
:data:`~repro.storage.tuples.Key`: the key column's bare values, tuples only
for a composite key.  While every key is held once (a primary-key build) it
maps ``key -> position`` and an insert or a probe is a few C-level passes over
the key column; from the first duplicate key or the first bucket question it
maps ``key -> [positions]`` and a row costs one dict operation in a plain
loop.  Either way the payload moves with one ``extend`` / one C-level gather
per column — no :class:`~repro.storage.tuples.Row`, no bytecode per cell.
Buckets serve the paper's overflow resolution only: a :class:`Bucket` is
``flushed`` plus the :class:`~repro.storage.disk.SpillLedger` of what it has
on disk, bucket identity is the hash *of the key as a tuple* (``(k,)`` for a
bare ``k`` — what it was when keys were tuples, so no victim, overflow point
or spilled byte depends on the key form), and per-bucket resident keys and row
counts exist only from a table's *first bucket question* on (a flush, a victim
choice, a bucket's rows or sizes): derived then in one pass over the distinct
keys, kept by every later insert.  The table's own history picks the regimes,
never a knob.  Spilled rows live in *one* append-only spill log per table (an
:class:`~repro.storage.disk.OverflowFile` tagging each row with its bucket): a
flush pops its buckets' keys out of the index, gathers their rows (ascending
positions *are* insertion order) into one tagged chunk and reclaims their
arena slots, and the rows a run segment sends to flushed buckets are one
gather per column however many buckets they scatter over — every byte and
page being what one file per bucket would charge.  Resident rows charge their
columnar byte estimate (:meth:`Schema.encoded_row_size` by default, dictionary
entries once per table; :meth:`Schema.columnar_row_size` with
``encoded=False``) against a :class:`~repro.storage.memory.MemoryBudget`, so
the joins meet memory pressure exactly when the paper's engine would, in all
three drive modes alike: the table's representation never changes with the drive.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain, islice
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
from repro.storage.tuples import Key, KeyBinder, Row

#: Default bucket count; the paper's engine sized this from optimizer hints.
DEFAULT_BUCKET_COUNT = 64

#: Shortest prefix of a refused segment worth its own exact fit check.
MIN_BULK_PREFIX = 8


def bucket_of(key: Key, bucket_count: int) -> int:
    """Deterministic bucket assignment for a join key.

    A one-column key is hashed *as the 1-tuple it stands for*: bucket identity
    is what it was when keys were tuples, so no flush victim, overflow point
    or spilled byte depends on the key's representation.  Uses the builtin
    ``hash`` — fastest available, and perfectly fine for buckets nobody
    compares across runs.  It is NOT stable across interpreter runs for
    strings (``PYTHONHASHSEED`` randomization); an assignment that must
    repeat run to run (exchange lane routing) uses :func:`stable_bucket_of`.
    """
    return hash(key if type(key) is tuple else (key,)) % bucket_count


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


def _stable_key_bytes(key: Key) -> bytes:
    """A canonical byte encoding of a join key, equal iff the keys route equal.

    Each value is tagged with its type so ``1`` and ``"1"`` never collide,
    except that floats with integral values encode as their int twin —
    builtin ``hash(1.0) == hash(1)``, and mixed int/float key columns must
    keep routing rows with equal keys to the same lane.  A one-column key
    encodes as the 1-tuple it stands for.
    """
    parts: list[bytes] = []
    for value in key if type(key) is tuple else (key,):
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


def stable_bucket_of(key: Key, bucket_count: int) -> int:
    """Run-stable bucket assignment (exchange lane routing).

    ``zlib.crc32`` over a canonical byte encoding: identical across
    interpreter runs whatever ``PYTHONHASHSEED`` says (builtin ``hash``
    randomizes strings per run), so a laned query routes — and therefore
    reads on the virtual clock — the same every time.
    """
    return crc32(_stable_key_bytes(key)) % bucket_count


class Bucket(SpillLedger):
    """One hash bucket, as far as overflow resolution needs one: ``flushed`` and
    the ledger of its spilled rows (its resident size is asked of the table)."""

    __slots__ = ("index", "flushed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.flushed = False


class _DictionaryCharge:
    """The budget a table's dictionary growth is charged to and the bytes
    charged so far.  Growth hooks hold this, never the table: a hook bound to
    the table would tie it into a reference cycle with its own dictionaries."""

    __slots__ = ("budget", "nbytes")

    def __init__(self, budget: MemoryBudget) -> None:
        self.budget = budget
        self.nbytes = 0

    def grow(self, nbytes: int) -> None:
        self.budget.force_reserve(nbytes)
        self.nbytes += nbytes

    def release(self) -> None:
        self.budget.release(self.nbytes)
        self.nbytes = 0


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
        Schema of the stored rows; fixes the arena's column layout
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

    A value that does not fit its dict-coded column degrades the
    *table's* column to a plain list (there is one column per attribute,
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
        self._growth = _DictionaryCharge(budget)
        self._dictionaries = None
        #: ``[(slot, dictionary, seen_codes)]`` for slots whose dictionary
        #: was adopted from the insert stream and ``[(slot, dictionary)]``
        #: for the table-owned ones (see ``_fix_dictionaries``).
        self._adopted_slots: list | None = None
        self._owned_slots: list | None = None
        #: The column arena (built on first insert; its ``positions`` is the key
        #: index) and how many of its slots are flushed rows awaiting compaction.
        self.arena: ColumnarPartition | None = None
        self._dead = 0
        #: ``(resident keys, resident row count)`` per bucket; ``None`` until
        #: the first bucket question (see :meth:`_track`).
        self._tracked: tuple[list[list], list[int]] | None = None
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
                dictionary.on_grow = self._growth.grow
                owned.append((j, dictionary))
        self._dictionaries = dictionaries
        self._adopted_slots = adopted
        self._owned_slots = owned

    @property
    def dictionary_bytes(self) -> int:
        """Bytes charged for dictionary entries (table-owned or adopted)."""
        return self._growth.nbytes

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
                self._growth.grow(dictionary.entry_bytes(code))

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
            store.unique = self._tracked is None  # bucket work is on position lists
        return store

    def _derive_buckets(self) -> tuple[list[list], list[int]]:
        """Every bucket's resident keys and row count, from one pass over the
        (general-regime) key index: one bucket hash per *distinct* key."""
        count = self.bucket_count
        single = self._binder.single
        held = [[] for _ in range(count)]
        sizes = [0] * count
        if self.arena is not None:
            for key, found in self.arena.positions.items():
                index = hash((key,) if single else key) % count
                held[index].append(key)
                sizes[index] += len(found)
        return held, sizes

    def _track(self) -> tuple[list[list], list[int]]:
        """The per-bucket bookkeeping: derived at the first bucket question —
        which also ends the arena's unique regime, buckets being flushed as
        position lists — and kept by every insert from then on
        (:meth:`_index_row`, :meth:`_move_rows`)."""
        if self._tracked is None:
            if self.arena is not None:
                self.arena.generalize()
            self._tracked = self._derive_buckets()
        return self._tracked

    def _index_row(self, index: int, key: Key) -> None:
        """Index the arena's newest row, of bucket ``index`` (row-at-a-time paths)."""
        fresh = self.arena.index_newest(key)
        if self._tracked is not None:
            held, sizes = self._tracked
            if fresh:
                held[index].append(key)
            sizes[index] += 1

    # -- basic operations --------------------------------------------------------

    def bucket_for_key(self, key: Key) -> Bucket:
        return self.buckets[bucket_of(key, self.bucket_count)]

    def insert(self, row: Row, marked: bool = False, key: Key | None = None) -> bool:
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
        bucket = self.bucket_for_key(key)
        self.total_inserted += 1
        if bucket.flushed:
            self.spill_log.write(row, marked, bucket)
            return False
        if not self.budget.try_reserve(self.row_bytes):
            self.total_inserted -= 1
            return False
        self._arena().append_values(row.values, row.arrival)
        self._index_row(bucket.index, key)
        return True

    def insert_position(
        self,
        bucket_index: int,
        key: Key,
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
        self._arena().append_position(source_columns, position, arrival)
        self._index_row(bucket_index, key)
        if self._adopted_slots:
            self._charge_adopted(source_columns, position)
        self.total_inserted += 1
        return True

    def insert_batch(
        self,
        batch: Batch,
        marked: bool = False,
        keys: Sequence[Key] | None = None,
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
        ``extend`` per column (the bulk fast path); otherwise the longest
        prefix found to fit *exactly* (halving from what the free bytes could
        hold) moves that way and the rest go row by row up to the refusal.
        The bounded forms (``stop`` / ``positions``) decide "fit"
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
            self._move_rows(columns, arrivals, keys, rows)
        elif rows:
            # A prefix passing the exact check holds no refused row (usage
            # only grows), so it moves in bulk; the row loop decides the rest.
            room = self.budget.available_bytes
            fit = min(len(rows) - 1, room // self.row_bytes) if room is not None else 0
            while fit >= MIN_BULK_PREFIX:
                if self._reserve_rows(columns, rows[:fit], True):
                    self._move_rows(columns, arrivals, keys, rows[:fit])
                    rows = rows[fit:]
                    break
                fit //= 2
            store = self._arena()
            for i in rows:
                if not self.budget.try_reserve(self.row_bytes):
                    n = i
                    break
                self.total_inserted += 1
                store.append_position(columns, i, arrivals[i])
                self._index_row(bucket_of(keys[i], self.bucket_count), keys[i])
                if self._adopted_slots:
                    self._charge_adopted(columns, i)
        if spills:
            self.total_inserted += self.spill_segment(columns, arrivals, spills, marked, n)
        return n

    def split_flushed(
        self,
        keys: Sequence[Key],
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
        single = self._binder.single
        flushed = [bucket.flushed for bucket in self.buckets]
        if twin is not None:
            flushed = list(map(or_, flushed, [bucket.flushed for bucket in twin.buckets]))
        live: list[int] = []
        spills: dict[int, list[int]] = {}
        for i in rows:
            index = hash((keys[i],) if single else keys[i]) % count
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
        dictionaries charge through their growth hook as the move encodes.
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
            self._growth.grow(nbytes)
        return True

    def _move_rows(
        self,
        columns: Sequence[Sequence[Any]],
        arrivals: Sequence[float],
        keys: Sequence[Key],
        rows: Sequence[int],
    ) -> None:
        """Move already-reserved ``rows`` into the arena and its key index
        (:meth:`ColumnarPartition.extend_gather`).  A tracked table then does
        its per-bucket bookkeeping: each key new to the index (its last ones
        — a dict keeps insertion order) joins its bucket's list, and one pass
        over the rows' keys counts them per bucket.
        """
        store = self._arena()
        index = store.positions
        known = len(index)
        store.extend_gather(columns, arrivals, keys, rows)
        self.total_inserted += len(rows)
        if self._tracked is not None:
            held, sizes = self._tracked
            count = self.bucket_count
            single = self._binder.single
            for key in islice(reversed(index), len(index) - known):
                held[hash((key,) if single else key) % count].append(key)
            for i in rows:
                sizes[hash((keys[i],) if single else keys[i]) % count] += 1

    def insert_resident(self, row: Row) -> None:
        """Insert assuming memory is available; raises if the budget refuses."""
        if not self.insert(row):
            raise StorageError(
                f"{self.name}: failed to insert resident row (budget exhausted "
                f"or bucket flushed)"
            )

    # -- probing -------------------------------------------------------------------

    def probe(self, key: Key) -> list[Row]:
        """Resident rows matching ``key``, boxed (the tuple-at-a-time view)."""
        matched = self.match_positions(key)
        if matched is None:
            return []
        store, positions = matched
        return [store.row_at(i) for i in positions]

    def match_positions(self, key: Key) -> tuple[ColumnarPartition, Sequence[int]] | None:
        """Resident matches as ``(arena, positions)`` — no row boxing."""
        store = self.arena
        positions = store.lookup(key) if store is not None else None
        return (store, positions) if positions else None

    def gather_matches(
        self,
        keys: Sequence[Key],
        positions: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> tuple[list[int], list[list[Any]], list[float], bool] | None:
        """Bulk probe of the resident rows (:meth:`ColumnarPartition.gather_matches`):
        ``(take, match_columns, match_arrivals, aligned)`` or ``None``."""
        if self.arena is None:
            return None
        return self.arena.gather_matches(keys, positions, limit)

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

    def bucket_sizes(self) -> Sequence[int]:
        """Resident row count of every bucket (read-only)."""
        return self._track()[1]

    def _bucket_positions(self, index: int, detach: bool = False) -> Sequence[int]:
        """Bucket ``index``'s arena positions, ascending — which is its
        insertion order — as a range when they are contiguous.  ``detach``
        pops the bucket's keys out of the index on the way (a flush)."""
        index_of = self.arena.positions
        found = map(index_of.pop if detach else index_of.__getitem__, self._track()[0][index])
        rows = sorted(chain.from_iterable(found))
        if rows and rows[-1] - rows[0] + 1 == len(rows):
            return range(rows[0], rows[-1] + 1)
        return rows

    def bucket_rows(self, index: int) -> tuple[list, list[float]]:
        """Bucket ``index``'s resident rows as ``(columns, arrivals)``, in
        insertion order, gathered out of the arena (storage classes kept)."""
        if self.arena is None:
            return [[] for _ in self.schema or ()], []
        return self.arena.gather_rows(self._bucket_positions(index))

    def flush_bucket(self, index: int, mark_rows: bool = False) -> int:
        """Write bucket ``index`` to disk, releasing its memory.

        Returns the number of rows flushed.  Subsequent inserts into this
        bucket go directly to the spill log.
        """
        return self._flush((self.buckets[index],), mark_rows)

    def _flush(self, victims: Sequence[Bucket], mark_rows: bool) -> int:
        """Flush ``victims`` in one step: one arena gather ordered by bucket,
        one tagged write.  Counters and budget move atomically — keys popped
        out of the index, arena slots reclaimed and resident bytes released
        *before* the spill write, so no observer can see a half-drained bucket
        or double-release its bytes.
        """
        held, sizes = self._track()
        parts = []
        groups = []
        for bucket in victims:
            index = bucket.index
            if sizes[index]:
                parts.append(self._bucket_positions(index, detach=True))
                groups.append((bucket, sizes[index]))
                held[index] = []
                sizes[index] = 0
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
        index).  A bucket flushes at most once per fill, so reclaiming is
        amortised O(rows ever inserted).
        """
        store = self.arena
        if type(rows) is range and rows.stop == len(store.arrivals):
            for column in store.columns:
                del column[rows.start :]
            del store.arrivals[rows.start :]
        else:
            self._dead += len(rows)
        if self._dead * 2 <= len(store.arrivals):
            return
        live = sorted(chain.from_iterable(store.positions.values()))
        store.columns, store.arrivals = store.gather_rows(live)
        renumber = dict(zip(live, range(len(live)))).__getitem__
        for found in store.positions.values():
            found[:] = map(renumber, found)
        self._dead = 0

    def flush_largest_bucket(self, mark_rows: bool = False) -> int | None:
        """Flush the resident bucket holding the most bytes; returns its index."""
        sizes = self.bucket_sizes()
        largest = max(sizes)
        if not largest:
            return None
        victim = sizes.index(largest)  # the first of the largest; never a flushed one (size 0)
        self.flush_bucket(victim, mark_rows)
        return victim

    def flush_all(self, mark_rows: bool = False) -> int:
        """Flush every bucket (one gather, one write); returns rows flushed."""
        return self._flush(self.buckets, mark_rows)

    # -- inspection ---------------------------------------------------------------

    @property
    def resident_rows(self) -> int:
        return len(self.arena) - self._dead if self.arena is not None else 0

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
        return [b.index for b in self.buckets if b.flushed]

    @property
    def has_resident_data(self) -> bool:
        return self.resident_rows > 0

    def resident_items(self) -> Iterator[Row]:
        """All resident rows, bucket by bucket (boxed; tests and debugging)."""
        for index in range(self.bucket_count):
            # repro: allow[hot-path-row] boxed inspection view, tests/debugging only
            yield from Batch.from_columns(self.schema, *self.bucket_rows(index)).rows()

    def overflow_store(self) -> tuple[list, list[float], list[bool], dict[int, list[int]], Any]:
        """Every row overflow resolution joins, as one positional store.

        ``(columns, arrivals, marked, rows, keys)``: the merged spill log
        followed by a copy of the arena (resident rows are unmarked), storage
        classes kept; ``rows[i]`` is bucket ``i``'s positions — spilled rows
        in write order, then resident ones in insertion order; ``keys`` each
        row's join key (:meth:`Batch.key_tuples`: bare values for one key column).
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
                extend_moving(columns, j, column)
            arrivals.extend(part.arrivals)
        spilled = len(log) if log is not None else 0
        marked = (log.marked if spilled else []) + [False] * (len(arrivals) - spilled)
        for index, size in enumerate(self.bucket_sizes()):
            if size:
                at = map(spilled.__add__, self._bucket_positions(index))
                rows[index] = [*rows.get(index, ()), *at]
        indices = self._binder.indices_in(self.schema)
        keys = Batch.from_columns(self.schema, columns, arrivals).key_tuples(indices)
        return columns, arrivals, marked, rows, keys

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
        callers with sole ownership can assert equality).  Also: the key
        index names every live arena slot exactly once, and per-bucket
        bookkeeping, once kept, equals a fresh derivation.  Asks no bucket
        question: checking a table never starts its tracking.
        """
        resident = self.resident_bytes
        if resident > self.budget.used_bytes:
            raise StorageError(
                f"{self.name}: accounting drift — resident {resident}B exceeds "
                f"budget reservation {self.budget.used_bytes}B"
            )
        slots = len(self.arena) if self.arena is not None else 0
        index = self.arena.positions if self.arena is not None else {}
        unique = self.arena is not None and self.arena.unique
        indexed = list(index.values() if unique else chain.from_iterable(index.values()))
        if (
            len(indexed) != self.resident_rows
            or len(set(indexed)) != len(indexed)
            or any(not 0 <= p < slots for p in indexed)
        ):
            raise StorageError(
                f"{self.name}: arena drift — {len(indexed)} rows indexed, "
                f"{slots} slots of which {self._dead} dead"
            )
        if self._tracked is not None:  # else no bucket was ever asked about: nothing to drift
            (kept, sizes), (fresh, counts) = self._tracked, self._derive_buckets()
            if sizes != counts or [*map(Counter, kept)] != [*map(Counter, fresh)]:
                raise StorageError(f"{self.name}: bucket bookkeeping drifted from the key index")

    def release_all(self) -> None:
        """Drop all resident rows and return their memory to the budget."""
        self.budget.release(self.resident_rows * self.row_bytes)
        self._growth.release()
        self.arena = self._tracked = None
        self._dead = 0
