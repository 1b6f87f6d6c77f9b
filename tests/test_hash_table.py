"""Unit tests for repro.storage.hash_table."""

import pytest

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import BucketedHashTable, bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import Row, counting_row_constructions

SCHEMA = Schema.of("k:int", "v:str")

#: Bytes one resident row charges against the budget: the *encoded* columnar
#: estimate (tables dictionary-encode string columns by default).
ROW_BYTES = SCHEMA.encoded_row_size

#: Bytes one new dictionary entry charges (value length + slot pointer); the
#: default test value is the one-char string "x".
DICT_X_BYTES = 1 + 8

#: All-string schema used by the encoded hot-path guard tests.
STR_SCHEMA = Schema.of("k:str", "v:str")


def make_row(key: int, value: str = "x") -> Row:
    return Row(SCHEMA, (key, value))


def make_table(limit_bytes=None, buckets=8, name="t") -> BucketedHashTable:
    return BucketedHashTable(
        ["k"], MemoryBudget(limit_bytes), SimulatedDisk(), bucket_count=buckets, name=name,
        schema=SCHEMA,
    )


def make_batch(keys, value="x") -> Batch:
    return Batch.from_columns(
        SCHEMA, [list(keys), [value] * len(keys)], [0.0] * len(keys)
    )


class TestBasicOperations:
    def test_insert_and_probe(self):
        table = make_table()
        table.insert(make_row(1, "a"))
        table.insert(make_row(1, "b"))
        table.insert(make_row(2, "c"))
        assert {row["v"] for row in table.probe(1)} == {"a", "b"}
        assert table.probe(99) == []
        assert table.resident_rows == 3

    def test_budget_charged_per_row_in_encoded_bytes(self):
        budget = MemoryBudget(10_000)
        table = BucketedHashTable(["k"], budget, SimulatedDisk())
        table.insert(make_row(1))
        # One encoded row plus the value's dictionary entry, charged once.
        assert table.dictionary_bytes == DICT_X_BYTES
        assert budget.used_bytes == ROW_BYTES + DICT_X_BYTES
        table.insert(make_row(2))
        assert budget.used_bytes == 2 * ROW_BYTES + DICT_X_BYTES

    def test_plain_mode_charges_plain_columnar_bytes(self):
        budget = MemoryBudget(10_000)
        table = BucketedHashTable(["k"], budget, SimulatedDisk(), encoded=False)
        table.insert(make_row(1))
        assert budget.used_bytes == SCHEMA.columnar_row_size
        assert table.dictionary_bytes == 0

    def test_insert_refused_when_budget_full(self):
        table = make_table(limit_bytes=ROW_BYTES)
        assert table.insert(make_row(1))
        assert not table.insert(make_row(2))
        assert table.resident_rows == 1

    def test_insert_resident_raises_when_full(self):
        table = make_table(limit_bytes=ROW_BYTES)
        table.insert_resident(make_row(1))
        with pytest.raises(StorageError):
            table.insert_resident(make_row(2))

    def test_bucket_count_validation(self):
        with pytest.raises(StorageError):
            make_table(buckets=0)

    def test_bucket_of_deterministic(self):
        assert bucket_of(5, 16) == bucket_of((5,), 16) == hash((5,)) % 16
        assert 0 <= bucket_of(("abc", 3), 7) == hash(("abc", 3)) % 7 < 7


class TestFlushing:
    def test_flush_bucket_releases_memory_and_spills(self):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        table = BucketedHashTable(["k"], budget, disk, bucket_count=4)
        rows = [make_row(i) for i in range(20)]
        for row in rows:
            table.insert(row)
        used_before = budget.used_bytes
        index = table.flush_largest_bucket()
        assert index is not None
        assert budget.used_bytes < used_before
        assert disk.stats.tuples_written > 0
        assert index in table.flushed_buckets

    def test_inserts_into_flushed_bucket_go_to_disk(self):
        table = make_table(buckets=1)
        table.insert(make_row(1))
        table.flush_bucket(0)
        assert not table.insert(make_row(2))
        assert table.resident_rows == 0
        assert len(list(table.overflow_rows(0))) == 2

    def test_flush_all(self):
        table = make_table(buckets=4)
        for i in range(10):
            table.insert(make_row(i))
        flushed = table.flush_all()
        assert flushed == 10
        assert table.resident_rows == 0
        assert not table.has_resident_data

    def test_flush_largest_picks_biggest(self):
        table = make_table(buckets=2)
        # Bucket of key k is deterministic; put more rows behind one key.
        heavy_key, light_key = 0, 1
        if bucket_of(0, 2) == bucket_of(1, 2):
            light_key = 2
        for _ in range(5):
            table.insert(make_row(heavy_key))
        table.insert(make_row(light_key))
        flushed_index = table.flush_largest_bucket()
        assert flushed_index == bucket_of(heavy_key, 2)

    def test_flush_largest_none_when_empty(self):
        assert make_table().flush_largest_bucket() is None

    def test_overflow_rows_marks_preserved(self):
        table = make_table(buckets=1)
        table.insert(make_row(1))
        table.flush_bucket(0, mark_rows=True)
        assert all(marked for _, marked in table.overflow_rows(0))

    def test_release_all_returns_budget(self):
        budget = MemoryBudget(None)
        table = BucketedHashTable(["k"], budget, SimulatedDisk())
        for i in range(5):
            table.insert(make_row(i))
        table.release_all()
        assert budget.used_bytes == 0
        assert table.resident_rows == 0

    def test_resident_items_iterates_all(self):
        table = make_table()
        for i in range(5):
            table.insert(make_row(i))
        assert len(list(table.resident_items())) == 5


class TestColumnarBuckets:
    """Rows live in one column arena, indexed by its one key->positions map."""

    def test_arena_columns_are_typed(self):
        from repro.storage.columns import DictColumn

        table = make_table()
        big = 2**63 + 1  # no packed buffer holds it; the arena holds the object itself
        table.insert(make_row(1, "a"))
        table.insert(make_row(big, "b"))
        store, positions = table.match_positions(1)
        assert list(positions) == [0]
        assert type(store.columns[0]) is list
        assert store.columns[0][1] is big
        # String columns dictionary-encode by default: the dictionary's own codes...
        assert isinstance(store.columns[1], DictColumn)
        dictionary = store.columns[1].dictionary
        assert all(code is dictionary.codes[v] for code, v in zip(store.columns[1].codes, "ab"))
        # ...and stay plain object lists with encoding off.
        plain = BucketedHashTable(
            ["k"], MemoryBudget(None), SimulatedDisk(), bucket_count=8,
            schema=SCHEMA, encoded=False,
        )
        plain.insert(make_row(1, "a"))
        assert isinstance(plain.match_positions(1)[0].columns[1], list)

    def test_insert_batch_bulk_fast_path(self):
        table = make_table()
        batch = make_batch(list(range(50)))
        assert table.insert_batch(batch) == 50
        assert table.resident_rows == 50
        assert table.budget.used_bytes == 50 * ROW_BYTES + DICT_X_BYTES
        assert {row["k"] for row in table.probe(7)} == {7}

    def test_insert_batch_stops_at_exact_refusal_row(self):
        # Budget fits 3 rows (plus the shared "x" dictionary entry); the 4th
        # insert must be the refusal position.
        table = make_table(limit_bytes=3 * ROW_BYTES + DICT_X_BYTES)
        batch = make_batch([0, 1, 2, 3, 4])
        stop = table.insert_batch(batch)
        assert stop == 3
        assert table.resident_rows == 3
        assert table.budget.stats.overflow_events == 1

    @pytest.mark.parametrize("stop", [None, 100])
    def test_refused_batch_moves_its_fitting_prefix_in_bulk(self, stop):
        """Room for 70 of 100 rows (and the 7 dictionary entries they add): the
        refusal lands on the tuple-at-a-time row, reached through a bulk prefix
        rather than 70 row-at-a-time appends — whole-remainder and bounded forms."""
        from helpers import recording_calls
        from repro.storage.columns import ColumnarPartition

        limit = 70 * ROW_BYTES + 7 * (2 + 8)
        batch = Batch.from_columns(
            SCHEMA, [list(range(100)), [f"v{i % 7}" for i in range(100)]], [0.0] * 100
        )
        table = make_table(limit_bytes=limit)
        with recording_calls(ColumnarPartition, "append_position") as appended:
            assert table.insert_batch(batch, stop=stop) == 70
        assert 0 < len(appended) <= 35  # 72 rows would fit but for their entries; 36 do
        twin = make_table(limit_bytes=limit)
        fitted = 0
        while twin.insert_position(bucket_of(fitted, 8), fitted, batch.columns, fitted, 0.0):
            fitted += 1
        assert fitted == 70
        assert table.budget.used_bytes == twin.budget.used_bytes == limit
        assert table.budget.stats.overflow_events == twin.budget.stats.overflow_events == 1
        assert probe_rows(table, list(range(100))) == probe_rows(twin, list(range(100)))
        table.check_accounting()

    def test_insert_batch_routes_flushed_buckets_to_disk(self):
        table = make_table(buckets=1)
        table.insert(make_row(0))
        table.flush_bucket(0)
        batch = make_batch([1, 2, 3])
        assert table.insert_batch(batch) == 3
        assert table.resident_rows == 0
        assert len(list(table.overflow_rows(0))) == 4

    def test_gather_matches_returns_columns_and_take(self):
        table = make_table()
        table.insert(make_row(1, "a"))
        table.insert(make_row(2, "b"))
        table.insert(make_row(2, "c"))
        result = table.gather_matches([1, 9, 2])
        assert result is not None
        take, columns, arrivals, aligned = result
        assert take == [0, 2, 2]
        assert list(columns[0]) == [1, 2, 2]
        assert sorted(columns[1]) == ["a", "b", "c"]
        assert len(arrivals) == 3
        assert not aligned

    def test_gather_matches_aligned_identity(self):
        table = make_table()
        table.insert(make_row(1, "a"))
        table.insert(make_row(2, "b"))
        take, _, _, aligned = table.gather_matches([1, 2])
        assert take == [0, 1]
        assert aligned

    def test_gather_matches_respects_positions_subset(self):
        table = make_table()
        table.insert(make_row(1, "a"))
        table.insert(make_row(2, "b"))
        take, columns, _, aligned = table.gather_matches([1, 2], positions=[1])
        assert take == [1]
        assert list(columns[0]) == [2]
        assert not aligned  # a subset probe can never be the identity

    def test_insert_and_probe_box_no_rows(self):
        """Hash-table insert/probe hot paths must not construct Row objects."""
        table = make_table()
        batch = make_batch(list(range(40)))
        keys = batch.key_tuples((0,))
        with counting_row_constructions() as counter:
            table.insert_batch(batch, keys=keys)
            table.insert_position(bucket_of(99, 8), 99, batch.columns, 0, 0.0)
            assert table.gather_matches(keys) is not None
            assert table.match_positions(5) is not None
            assert counter.count == 0
        # The boxed views box (that is their job).
        with counting_row_constructions() as counter:
            assert len(table.probe(5)) == 1
            assert counter.count == 1

    def test_spill_and_flush_box_no_rows(self):
        table = make_table(buckets=1)
        batch = make_batch(list(range(10)))
        table.insert_batch(batch)
        with counting_row_constructions() as counter:
            table.flush_bucket(0)
            table.spill_position(0, batch.columns, 3, 0.0, marked=True)
            for chunk in table.overflow_chunks(0):
                assert len(chunk) > 0
            assert counter.count == 0


def keys_of_bucket(bucket: int, how_many: int, buckets: int = 4) -> list[int]:
    """The first ``how_many`` int keys hashing to ``bucket``."""
    found = []
    key = 0
    while len(found) < how_many:
        if bucket_of(key, buckets) == bucket:
            found.append(key)
        key += 1
    return found


def chunk_rows(table: BucketedHashTable, bucket: int) -> list[list[tuple]]:
    """Bucket's spill file as ``[[(k, v, arrival, marked), ...] per chunk]``."""
    return [
        list(zip(*(list(c) for c in chunk.columns), list(chunk.arrivals), chunk.marked))
        for chunk in table.overflow_chunks(bucket)
    ]


def probe_rows(table: BucketedHashTable, keys: list[int]) -> list[tuple]:
    result = table.gather_matches(keys)
    if result is None:
        return []
    take, columns, arrivals, _ = result
    return list(zip(take, *(list(c) for c in columns), arrivals))


class TestColumnArena:
    """One append-only column arena per table: flushes truncate its tail,
    tombstone its middle, and compact it once dead rows outnumber live ones."""

    def make_filled(self, layout: list[int]) -> BucketedHashTable:
        """A 4-bucket table whose arena row ``i`` belongs to bucket
        ``layout[i]`` (value ``v<i>``, arrival ``i``)."""
        table = make_table(buckets=4)
        pools = {b: iter(keys_of_bucket(b, len(layout))) for b in set(layout)}
        keys = [next(pools[b]) for b in layout]
        table.insert_batch(
            Batch.from_columns(
                SCHEMA,
                [list(keys), [f"v{i}" for i in range(len(keys))]],
                [float(i) for i in range(len(keys))],
            )
        )
        self.keys = keys
        return table

    def expect_rows(self, table, layout, alive):
        """Every surviving row probes back, in insertion order, exactly once."""
        for bucket in alive:
            wanted = [i for i, b in enumerate(layout) if b == bucket]
            got = probe_rows(table, [self.keys[i] for i in wanted])
            assert got == [(n, self.keys[i], f"v{i}", float(i)) for n, i in enumerate(wanted)]
        table.check_accounting()
        assert table.budget.used_bytes == table.resident_bytes

    def test_flush_of_tail_truncates(self):
        layout = [0, 1, 0, 1, 2, 2, 2]
        table = self.make_filled(layout)
        assert table.flush_bucket(2, mark_rows=True) == 3
        assert len(table.arena) == 4 and table._dead == 0
        assert chunk_rows(table, 2) == [
            [(self.keys[i], f"v{i}", float(i), True) for i in (4, 5, 6)]
        ]
        self.expect_rows(table, layout, alive=[0, 1])
        # The arena keeps appending where the truncation left it.
        fresh = keys_of_bucket(3, 1)[0]
        table.insert(make_row(fresh, "late"))
        assert table.match_positions(fresh)[1] == [4]

    def test_flush_in_the_middle_tombstones(self):
        layout = [0, 1, 0, 2, 0, 1, 0]
        table = self.make_filled(layout)
        assert table.flush_bucket(1) == 2
        assert len(table.arena) == 7 and table._dead == 2
        assert chunk_rows(table, 1) == [
            [(self.keys[i], f"v{i}", float(i), False) for i in (1, 5)]
        ]
        assert table.resident_rows == 5
        self.expect_rows(table, layout, alive=[0, 2])

    def test_flush_that_compacts_then_probe_survivors(self):
        layout = [0, 1, 2, 0, 1, 2, 0, 1]
        table = self.make_filled(layout)
        table.flush_bucket(0)
        assert len(table.arena) == 8 and table._dead == 3  # 3 dead <= 5 live
        table.flush_bucket(1)  # 6 dead > 2 live: compaction
        assert len(table.arena) == 2 and table._dead == 0
        assert table.match_positions(self.keys[2])[1] == [0]
        assert table.match_positions(self.keys[5])[1] == [1]
        self.expect_rows(table, layout, alive=[2])
        assert chunk_rows(table, 1) == [
            [(self.keys[i], f"v{i}", float(i), False) for i in (1, 4, 7)]
        ]
        # Inserts after a compaction extend the compacted arena.
        again = keys_of_bucket(2, 9)[-1]
        table.insert_position(2, again, [[again], ["new"]], 0, 9.0)
        assert probe_rows(table, [again]) == [(0, again, "new", 9.0)]
        assert table.flush_bucket(2) == 3
        assert table.resident_rows == 0 and len(table.arena) == 0
        table.check_accounting()

    def test_flush_largest_reads_the_bucket_counters(self):
        # Buckets 1 and 2 tie at three rows: the first strictly largest wins.
        table = self.make_filled([1, 2, 1, 2, 0, 1, 2])
        assert table.bucket_sizes() == [1, 3, 3, 0]
        assert table.flush_largest_bucket() == 1
        assert table.resident_rows == 4 and table.has_resident_data
        assert table.flush_largest_bucket() == 2
        assert table.flush_largest_bucket() == 0
        assert table.flush_largest_bucket() is None
        assert not table.has_resident_data

    def test_one_column_set_per_table(self, monkeypatch):
        from repro.storage import columns as columns_module

        made = []
        original = columns_module.empty_columns

        def counting(schema, *args, **kwargs):
            made.append(len(schema))
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(columns_module, "empty_columns", counting)
        table = make_table(buckets=64)
        for start in range(0, 2000, 250):
            table.insert_batch(make_batch(list(range(start, start + 250))))
        assert all(table.bucket_sizes())
        assert made == [len(SCHEMA)]

    def test_misfit_degrades_the_tables_column(self):
        table = make_table(buckets=4)
        table.insert_batch(make_batch([0, 1, 2, 3]))
        odd = Batch.from_columns(SCHEMA, [[4, 5], ["y", None]], [1.0, 1.0])
        assert table.insert_batch(odd) == 2
        store, _ = table.match_positions(5)
        assert type(store.columns[1]) is list  # the table's column, every bucket's rows
        assert probe_rows(table, [0, 5]) == [(0, 0, "x", 0.0), (1, 5, None, 1.0)]
        assert table.budget.used_bytes == table.resident_bytes
        bucket = bucket_of(0, 4)
        flushed = table.flush_bucket(bucket)
        assert sum(len(chunk) for chunk in chunk_rows(table, bucket)) == flushed
        table.check_accounting()


class CountedKey:
    """A join-key value that counts how often it is hashed: once per dict
    operation, and once per bucket hash — which hashes the 1-tuple around it,
    so it lands in the bucket of ``v``."""

    calls = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        CountedKey.calls += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        return self.value == other.value


class TestKeyIndexProportionality:
    """A table that is never asked a bucket question hashes a key once per
    index operation and nowhere else; leaving the unique regime and the first
    bucket question each cost one pass over the distinct keys, not the rows,
    at most once per arena."""

    def hashes(self, work) -> int:
        before = CountedKey.calls
        work()
        return CountedKey.calls - before

    def test_unpressured_insert_and_probe_hash_once_per_dict_operation(self):
        n = 200
        table = make_table(buckets=16)
        keys = [CountedKey(k) for k in range(n)]
        # A unique-key build makes a dict of the batch's keys (distinct?), looks
        # each up in the index (disjoint?) and merges with the hashes the dict
        # already holds; a probe is one lookup per key.  3N in all.
        batch = make_batch(list(range(n)))
        assert self.hashes(lambda: table.insert_batch(batch, keys=keys)) == 2 * n
        assert self.hashes(lambda: table.gather_matches(keys)) == n
        assert self.hashes(lambda: table.match_positions(keys[3])) == 1
        assert table._tracked is None and table.arena.unique
        table.check_accounting()
        assert table._tracked is None and table.arena.unique  # checking is not asking
        # A later batch costs what *it* holds, whatever the table holds...
        more = [CountedKey(k) for k in range(n, n + 10)]
        late = make_batch(list(range(n, n + 10)))
        assert self.hashes(lambda: table.insert_batch(late, keys=more)) == 20
        # ...and the first duplicate ends the regime with one pass over the
        # distinct keys: the failed check (10 + the lookup that found it), the
        # conversion (210), then a lookup per row and a store per new key.
        again = [CountedKey(k) for k in [5] + list(range(300, 309))]
        dup = make_batch([5] + list(range(300, 309)))
        assert self.hashes(lambda: table.insert_batch(dup, keys=again)) == 11 + 210 + 10 + 9
        assert not table.arena.unique and table._tracked is None
        assert self.hashes(lambda: table.insert_batch(dup, keys=again)) == 10  # the plain loop
        assert list(table.match_positions(again[0])[1]) == [5, 210, 220]
        table.check_accounting()

    def test_first_bucket_question_is_one_pass_over_distinct_keys(self):
        distinct, copies, buckets = 40, 5, 4
        table = make_table(buckets=buckets)
        values = list(range(distinct)) * copies
        keys = [CountedKey(v) for v in values]
        # The batch's own duplicates fail the unique check (a hash per row,
        # once per arena; the empty index converts for free); then rows after
        # a key's first are one lookup each.
        assert self.hashes(lambda: table.insert_batch(make_batch(values), keys=keys)) == (
            len(values) + len(values) + distinct
        )
        assert table._tracked is None and not table.arena.unique
        sizes = [0] * buckets
        for value in values:
            sizes[bucket_of(value, buckets)] += 1
        victim = sizes.index(max(sizes))
        # One hash per distinct key to learn its bucket, one more per key of
        # the victim to pop it out of the index.
        assert self.hashes(table.flush_largest_bucket) == distinct + sizes[victim] // copies
        assert table._tracked is not None
        sizes[victim] = 0
        assert table.bucket_sizes() == sizes
        assert self.hashes(table.bucket_sizes) == 0  # asked once, kept from then on
        table.check_accounting()

    def test_a_bucket_question_ends_the_unique_regime_once_per_arena(self):
        n, buckets = 120, 4
        table = make_table(buckets=buckets)
        keys = [CountedKey(k) for k in range(n)]
        batch = make_batch(list(range(n)))
        table.insert_batch(batch, keys=keys)
        assert table.arena.unique
        # The question converts the index (a store per key), derives the
        # buckets (a bucket hash per key) and answers: two passes over the
        # distinct keys, none over anything else.
        assert self.hashes(table.bucket_sizes) == 2 * n
        assert not table.arena.unique and table._tracked is not None
        assert self.hashes(table.bucket_sizes) == 0
        assert self.hashes(lambda: table.gather_matches(keys)) == n
        # Tracked inserts: a lookup and a store per new key, its bucket once
        # for the key list and once per row for the count.
        more = [CountedKey(k) for k in range(n, n + 10)]
        assert self.hashes(
            lambda: table.insert_batch(make_batch(list(range(n, n + 10))), keys=more)
        ) == 40
        table.check_accounting()
        # release_all starts a fresh arena, unique and unasked again.
        table.release_all()
        assert table.arena is None and table._tracked is None
        assert self.hashes(lambda: table.insert_batch(batch, keys=keys)) == 2 * n
        assert table.arena.unique and table._tracked is None
        # A table asked before its first row starts its arena on position lists.
        asked = make_table(buckets=buckets)
        assert asked.bucket_sizes() == [0] * buckets
        asked.insert_batch(batch, keys=keys)
        assert not asked.arena.unique
        asked.check_accounting()


class TestSharedProbeLoop:
    """``ColumnarPartition.gather_matches`` — the one probe loop of the hybrid,
    double pipelined and nested-loops joins: ``positions``, ``limit``, ``aligned``."""

    def make_partition(self, keys: list[int]):
        from repro.storage.columns import ColumnarPartition

        partition = ColumnarPartition(SCHEMA, encoded=True)
        batch = Batch.from_columns(
            SCHEMA,
            [list(keys), [f"v{i}" for i in range(len(keys))]],
            [float(i) for i in range(len(keys))],
        )
        partition.extend_gather(batch.columns, batch.arrivals, keys, range(len(keys)))
        return partition

    def probe(self, partition, keys, positions=None, limit=None):
        result = partition.gather_matches(keys, positions, limit)
        if result is None:
            return None
        take, columns, arrivals, aligned = result
        return take, list(columns[1]), arrivals, aligned

    def test_matches_come_key_major_in_insertion_order(self):
        partition = self.make_partition([1, 2, 1, 3, 1])
        assert self.probe(partition, [3, 9, 1]) == (
            [0, 2, 2, 2], ["v3", "v0", "v2", "v4"], [3.0, 0.0, 2.0, 4.0], False,
        )
        assert self.probe(partition, [9, 8]) is None
        assert self.probe(self.make_partition([]), [1]) is None

    def test_aligned_only_when_every_key_matches_exactly_once(self):
        partition = self.make_partition([1, 2, 3, 3])
        assert self.probe(partition, [2, 1]) == ([0, 1], ["v1", "v0"], [1.0, 0.0], True)
        assert self.probe(partition, [2, 9, 1])[3] is False  # a miss
        assert self.probe(partition, [2, 3])[3] is False  # a fan-out
        # Probing a subset of the keys is never the identity, though all of it matches once.
        assert self.probe(partition, [2, 1, 9], positions=[0, 1])[3] is False
        assert self.probe(partition, [2, 1], positions=[0, 1])[3] is True

    def test_positions_restrict_the_probe_and_name_the_takes(self):
        partition = self.make_partition([1, 2, 1])
        assert self.probe(partition, [1, 2, 1, 2], positions=[1, 2]) == (
            [1, 2, 2], ["v1", "v0", "v2"], [1.0, 0.0, 2.0], False,
        )
        assert self.probe(partition, [1, 2], positions=range(1, 2))[0] == [1]
        assert self.probe(partition, [1, 2], positions=[]) is None

    def test_limit_stops_after_the_key_that_fills_it(self):
        partition = self.make_partition([1, 1, 1, 2, 3])
        keys = [2, 1, 3, 1]
        # The cut key's matches are all included; take[-1] names it.
        assert self.probe(partition, keys, limit=2)[0] == [0, 1, 1, 1]
        assert self.probe(partition, keys, limit=4)[0] == [0, 1, 1, 1]
        assert self.probe(partition, keys, limit=5)[0] == [0, 1, 1, 1, 2]
        assert self.probe(partition, keys, limit=1)[0] == [0]
        assert self.probe(partition, keys, limit=99)[0] == [0, 1, 1, 1, 2, 3, 3, 3]
        # Misses do not count towards the limit; a cut probe is never aligned.
        assert self.probe(partition, [9, 2, 9, 3], limit=1)[0] == [1]
        assert self.probe(partition, [2, 3], limit=1) == ([0], ["v3"], [3.0], False)
        assert self.probe(partition, keys, positions=[2, 3], limit=1)[0] == [2]

    #: Rows ``(key 10 + i, "v<i>", arrival i)``: every key held once.
    HELD = [10, 11, 12, 13, 14, 15]

    @pytest.fixture(params=["unique", "general"])
    def keyed_once(self, request):
        """The same store in either regime: as built (``key -> position``), or
        moved to position lists the way a duplicate or a bucket question would."""
        partition = self.make_partition(self.HELD)
        assert partition.unique
        if request.param == "general":
            partition.generalize()
        assert partition.unique == (request.param == "unique")
        return partition

    def expected(self, keys, positions=None, limit=None):
        """What a row-at-a-time probe of ``HELD`` returns and where it stops."""
        probe = range(len(keys)) if positions is None else positions
        take = []
        for position in probe:
            if keys[position] in self.HELD:
                take.append(position)
                if limit is not None and len(take) >= limit:
                    break
        if not take:
            return None
        at = [self.HELD.index(keys[position]) for position in take]
        aligned = len(take) == len(keys) == len(probe)
        return take, [f"v{i}" for i in at], [float(i) for i in at], aligned

    @pytest.mark.parametrize(
        "keys, positions, limit",
        [
            ([12, 10, 15], None, None),  # every key hits: aligned
            ([12, 99, 10], None, None),  # a miss
            ([99, 98], None, None),  # nothing
            ([10, 11], [], None),
            ([10, 99, 11, 12], [1, 2, 3], None),  # a subset, as a list...
            ([10, 99, 11, 12], range(1, 3), None),  # ...and as a range
            ([10, 11, 12], [0, 1], None),  # a matching subset is still not the identity
            ([10, 11, 12], range(0, 3), None),  # the whole range is
            ([10, 11, 12, 13], None, 2),  # the limit lands on a hit
            ([10, 11], None, 2),  # ...the last one: aligned
            ([10, 11, 99], None, 2),
            ([99, 10, 98, 11, 97, 12], None, 2),  # misses leave the first two keys short
            ([99, 10, 98, 11, 97, 12], None, 3),  # ...and the rest just enough
            ([99, 98, 97, 10], None, 1),
            ([99, 98, 97, 96], None, 1),
            ([10, 11, 12], None, 99),  # beyond the segment
            ([99, 10, 98], None, 99),
            ([10, 99, 11, 12, 13], [1, 2, 4], 1),  # a limit inside a subset
            ([10, 99, 11, 12, 13], [1, 2, 4], 2),
            ([10, 99, 11, 12, 13], [1, 2, 4], 3),
            ([14, 99, 15, 98, 10, 11], range(1, 6), 2),
        ],
    )
    def test_both_regimes_keep_the_probe_contract(self, keyed_once, keys, positions, limit):
        got = self.probe(keyed_once, keys, positions, limit)
        assert got == self.expected(keys, positions, limit)
        if got is not None and limit is not None and len(got[0]) >= limit:
            # take[-1] names the key a row-at-a-time probe would have stopped at.
            probe = list(range(len(keys)) if positions is None else positions)
            hits = [p for p in probe if keys[p] in self.HELD]
            assert got[0][-1] == hits[limit - 1]

    def test_the_limit_th_hit_is_where_the_probe_stops(self, keyed_once):
        keys = [99, 10, 98, 11, 97, 12]
        assert self.probe(keyed_once, keys, limit=2) == ([1, 3], ["v0", "v1"], [0.0, 1.0], False)
        # The caller may cut the lists it gets back (the DPJ drops matches past a refusal).
        take, columns, arrivals, _ = keyed_once.gather_matches(keys, range(1, 6), 99)
        assert type(take) is list and type(arrivals) is list
        del take[1:], arrivals[1:]

    def test_inserts_leave_the_unique_regime_at_the_first_duplicate(self):
        from repro.storage.columns import ColumnarPartition

        def extend(partition, keys):
            batch = make_batch(keys)
            partition.extend_gather(batch.columns, batch.arrivals, keys, range(len(keys)))

        across = self.make_partition([1, 2, 3])
        extend(across, [4, 5])
        assert across.unique and across.positions == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
        extend(across, [6, 2])  # distinct in itself, not against the index
        assert not across.unique
        assert across.positions == {1: [0], 2: [1, 6], 3: [2], 4: [3], 5: [4], 6: [5]}
        inside = self.make_partition([1, 2, 3])
        extend(inside, [7, 8, 7])  # disjoint from the index, not distinct in itself
        assert not inside.unique and inside.positions[7] == [3, 5] and inside.positions[1] == [0]
        by_row = ColumnarPartition(SCHEMA, encoded=True)
        for key in (1, 2):
            by_row.append_values((key, "x"), 0.0)
            assert by_row.index_newest(key)
        assert by_row.unique and by_row.lookup(2) == (1,) and by_row.lookup(9) == ()
        by_row.append_values((1, "y"), 0.0)
        assert not by_row.index_newest(1)
        assert not by_row.unique and by_row.positions == {1: [0, 2], 2: [1]}
        assert by_row.lookup(1) == [0, 2] and by_row.lookup(2) == [1]
        for partition in (across, inside, by_row):
            partition.generalize()  # one way: nothing to do, nothing undone
            assert not partition.unique


class TestAccountingInvariant:
    """budget.used must equal the tables' resident bytes at all times."""

    def test_flush_releases_atomically(self):
        table = make_table(buckets=4)
        for i in range(20):
            table.insert(make_row(i))
        assert (
            table.budget.used_bytes
            == table.resident_bytes
            == 20 * ROW_BYTES + DICT_X_BYTES
        )
        table.flush_largest_bucket()
        assert table.budget.used_bytes == table.resident_bytes
        table.flush_all()
        # Rows are all on disk; the table dictionary stays resident (spilled
        # chunks reference it) until release_all.
        assert table.budget.used_bytes == table.resident_bytes == DICT_X_BYTES
        table.check_accounting()
        table.release_all()
        assert table.budget.used_bytes == table.resident_bytes == 0

    def test_shared_budget_across_two_tables(self):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        left = BucketedHashTable(["k"], budget, disk, bucket_count=4, schema=SCHEMA)
        right = BucketedHashTable(["k"], budget, disk, bucket_count=4, schema=SCHEMA)
        for i in range(10):
            left.insert(make_row(i))
            right.insert(make_row(i))
        assert budget.used_bytes == left.resident_bytes + right.resident_bytes
        left.flush_bucket(0)
        right.flush_all()
        assert budget.used_bytes == left.resident_bytes + right.resident_bytes
        left.check_accounting()
        right.check_accounting()

    def test_check_accounting_detects_drift(self):
        table = make_table()
        table.insert(make_row(1))
        table.budget.release(ROW_BYTES)  # simulate a lost release
        with pytest.raises(StorageError):
            table.check_accounting()

    def test_release_all_restores_budget(self):
        table = make_table(buckets=2)
        batch = make_batch(list(range(12)))
        table.insert_batch(batch)
        table.flush_bucket(0)
        table.release_all()
        assert table.budget.used_bytes == 0
        assert table.resident_bytes == 0


class TestEncodedHotPaths:
    """Dict-encoded insert/probe and spill write/read paths construct no
    Row objects and no per-row string objects: every string that comes back
    *is* (identity, not equality) a dictionary entry."""

    def make_string_batch(self, keys):
        from repro.storage.columns import build_columns, make_dictionaries

        values = [f"K{k:04d}" for k in keys]
        payload = ["hot" if k % 2 else "cold" for k in keys]
        dictionaries = make_dictionaries(STR_SCHEMA)
        columns = build_columns(
            STR_SCHEMA, [values, payload], encoded=True, dictionaries=dictionaries
        )
        return Batch.from_columns(STR_SCHEMA, columns, [0.0] * len(keys))

    def make_string_table(self, limit_bytes=None, buckets=8):
        return BucketedHashTable(
            ["k"], MemoryBudget(limit_bytes), SimulatedDisk(), bucket_count=buckets,
            name="enc", schema=STR_SCHEMA,
        )

    def all_dictionary_string_ids(self, batch, table):
        ids = set()
        from repro.storage.columns import DictColumn

        for column in batch.columns:
            if isinstance(column, DictColumn):
                ids.update(map(id, column.dictionary.values))
        for dictionary in table._dictionaries or ():
            if dictionary is not None:
                ids.update(map(id, dictionary.values))
        return ids

    def test_insert_probe_and_spill_move_no_rows_and_no_new_strings(self):
        table = self.make_string_table(buckets=4)
        batch = self.make_string_batch(list(range(32)))
        keys = batch.key_tuples((0,))
        with counting_row_constructions() as counter:
            assert table.insert_batch(batch, keys=keys) == 32
            result = table.gather_matches(keys)
            assert result is not None
            table.flush_bucket(0)
            table.spill_position(0, batch.columns, 3, 0.0, marked=True)
            chunks = list(table.overflow_chunks(0))
            assert chunks
            assert counter.count == 0
        canonical = self.all_dictionary_string_ids(batch, table)
        # Probe results decode to canonical dictionary strings...
        _, match_columns, _, _ = result
        for column in match_columns:
            for value in column:
                if isinstance(value, str):
                    assert id(value) in canonical
        # ...and so do spilled chunks read back from disk.
        for chunk in chunks:
            for column in chunk.columns:
                for value in list(column):
                    if isinstance(value, str):
                        assert id(value) in canonical

    def test_adopted_dictionaries_share_the_batch_dictionary(self):
        table = self.make_string_table()
        batch = self.make_string_batch([1, 2, 3])
        table.insert_batch(batch)
        from repro.storage.columns import DictColumn

        key_column = batch.columns[0]
        assert isinstance(key_column, DictColumn)
        assert table._dictionaries[0] is key_column.dictionary
        # The arena moves codes, so its column (and every gather out of it)
        # shares it too.
        for bucket in table.buckets:
            columns, _ = table.bucket_rows(bucket.index)
            assert columns[0].dictionary is key_column.dictionary

    def test_dictionary_growth_is_charged_once_per_value(self):
        budget = MemoryBudget(None)
        table = BucketedHashTable(
            ["k"], budget, SimulatedDisk(), bucket_count=4, schema=STR_SCHEMA
        )
        batch = self.make_string_batch([1, 2, 1, 2])
        table.insert_batch(batch)
        # 4 rows + dictionary entries: 2 distinct keys (5 chars) and the
        # two payload values "hot"/"cold".
        expected_dict = 2 * (5 + 8) + (3 + 8) + (4 + 8)
        assert table.dictionary_bytes == expected_dict
        assert budget.used_bytes == 4 * STR_SCHEMA.encoded_row_size + expected_dict
