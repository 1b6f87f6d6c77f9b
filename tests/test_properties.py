"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from collections import Counter
from itertools import cycle
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.engine.operators.joins import double_pipelined
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import OverflowMethod, collector, wrapper_scan
from repro.plan.rules import Always, Compare, EventType, Rule, constant, deactivate, event_value
from repro.storage.batch import Batch
from repro.storage.columns import (
    DictColumn,
    Dictionary,
    build_column,
    gather_into,
    make_dictionaries,
    picker,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import BucketedHashTable
from repro.storage.memory import MemoryBudget
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import (
    distinct_rows,
    project_relation,
    union_relations,
    GatherThenExtendDPJ,
    ScriptedProfile,
    ScriptedRuns,
    arrival_schedule,
    drive_join,
    examples,
    gather_then_extend,
    insert_row,
    iterate,
    make_relation,
    next_row,
    resident_matches,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

keys = st.integers(min_value=0, max_value=20)
payloads = st.text(alphabet="abcdef", min_size=0, max_size=4)
pair_lists = st.lists(st.tuples(keys, payloads), min_size=0, max_size=40)

LEFT_SCHEMA = Schema.of("l.k:int", "l.p:str")
RIGHT_SCHEMA = Schema.of("r.k:int", "r.q:str")


def to_relation(name: str, schema: Schema, pairs: list[tuple[int, str]]) -> Relation:
    return Relation(name, schema, (Row(schema, pair) for pair in pairs))


def expected_join_size(left: list[tuple[int, str]], right: list[tuple[int, str]]) -> int:
    from collections import Counter

    left_counts = Counter(k for k, _ in left)
    right_counts = Counter(k for k, _ in right)
    return sum(left_counts[k] * right_counts[k] for k in left_counts)


def join_multiset(rows) -> dict:
    counts: dict = {}
    for row in rows:
        counts[row.values] = counts.get(row.values, 0) + 1
    return counts


def reference_pairs(left, right):
    out: dict = {}
    for lk, lp in left:
        for rk, rq in right:
            if lk == rk:
                key = (lk, lp, rk, rq)
                out[key] = out.get(key, 0) + 1
    return out


def run_join(join_cls, left_pairs, right_pairs, **kwargs):
    catalog = DataSourceCatalog()
    catalog.register_source(
        DataSource("l", Relation("l", Schema.of("k:int", "p:str"),
                                 (Row(Schema.of("k:int", "p:str"), p) for p in left_pairs)), lan())
    )
    catalog.register_source(
        DataSource("r", Relation("r", Schema.of("k:int", "q:str"),
                                 (Row(Schema.of("k:int", "q:str"), p) for p in right_pairs)), lan())
    )
    context = ExecutionContext(catalog)
    join = join_cls(
        "join",
        context,
        WrapperScan("sl", context, "l"),
        WrapperScan("sr", context, "r"),
        ["l.k"],
        ["r.k"],
        **kwargs,
    )
    join.open()
    rows = list(iterate(join))
    join.close()
    return rows


# ---------------------------------------------------------------------------
# Storage invariants
# ---------------------------------------------------------------------------


class TestHashTableProperties:
    @given(pairs=pair_lists)
    @settings(max_examples=examples(60), deadline=None)
    def test_probe_returns_exactly_matching_rows(self, pairs):
        table = BucketedHashTable(["l.k"], MemoryBudget(None), SimulatedDisk(), bucket_count=8)
        for pair in pairs:
            insert_row(table, Row(LEFT_SCHEMA, pair))
        for key in {k for k, _ in pairs}:
            matches = resident_matches(table, key)
            assert len(matches) == sum(1 for k, _ in pairs if k == key)
            assert all(row["l.k"] == key for row in matches)

    @given(pairs=pair_lists)
    @settings(max_examples=examples(60), deadline=None)
    def test_flush_conserves_rows_and_memory(self, pairs):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        table = BucketedHashTable(["l.k"], budget, disk, bucket_count=4)
        for pair in pairs:
            insert_row(table, Row(LEFT_SCHEMA, pair))
        resident_before = table.resident_rows
        table.flush_all()
        assert table.resident_rows == 0
        # Flushing releases the row bytes; only the (encoded) dictionary
        # stays charged until the table itself is released.
        assert budget.used_bytes == table.dictionary_bytes
        assert disk.stats.tuples_written == resident_before
        table.release_all()
        assert budget.used_bytes == 0

    @given(pairs=pair_lists, limit_tuples=st.integers(min_value=1, max_value=10))
    @settings(max_examples=examples(40), deadline=None)
    def test_resident_rows_never_exceed_budget(self, pairs, limit_tuples):
        limit = LEFT_SCHEMA.tuple_size * limit_tuples
        budget = MemoryBudget(limit)
        table = BucketedHashTable(["l.k"], budget, SimulatedDisk(), bucket_count=4)
        for pair in pairs:
            if not insert_row(table, Row(LEFT_SCHEMA, pair)):
                table.flush_largest_bucket()
                insert_row(table, Row(LEFT_SCHEMA, pair))
            # Row reservations respect the limit; dictionary growth is
            # force-charged on top (it cannot be refused row by row).
            assert budget.used_bytes <= limit + table.dictionary_bytes


# The table-wide column arena against a naive model: random interleavings of
# every insert, probe, flush, revocation and release entry point.

ARENA_SCHEMA = Schema.of("t.k:int", "t.g:str", "t.v:str", "t.w:float")
ARENA_BUCKETS = 6
STRING_SLOTS = (1, 2)

#: Inserts, probes and single-bucket flushes dominate; the table-wide resets are rare.
ARENA_KINDS = (
    ["batch"] * 10 + ["probe"] * 8 + ["position"] * 4 + ["flush"] * 3
    + ["flush_largest"] * 2 + ["revoke", "flush_all", "release"]
)
percent = st.integers(0, 100)
#: ``(kind, seed, low, high, flag)`` — an op's rows / probed keys / subsets are
#: drawn from ``Random(seed)``, so examples stay small enough to run dozens of ops.
arena_ops = st.tuples(
    st.sampled_from(ARENA_KINDS), st.integers(0, 2**16), percent, percent, st.booleans()
)


ARENA_GROUPS = ("g0", "g1", "group-two")
#: ``t.v``'s values: every string of at most three letters from ``abc``.
ARENA_WORD_LETTERS, ARENA_WORD_MAX = "abc", 3


def arena_rows(random, fresh=None) -> list[tuple]:
    """Rows keyed from a small domain (duplicates within and across batches),
    or — while a table is kept unique — by the never-used keys ``fresh`` counts."""
    return [
        (
            random.randrange(12) if fresh is None else next(fresh),
            random.choice(ARENA_GROUPS),
            "".join(random.choices(ARENA_WORD_LETTERS, k=random.randrange(ARENA_WORD_MAX + 1))),
            random.choice([0.5, 1.5, -2.0]),
        )
        for _ in range(random.choice([1, 2, 3, 4] + [random.randint(1, 24)] * 3))
    ]


def frozen_arena_dictionaries() -> list:
    """A coding scan's dictionaries: the whole string domain of
    :func:`arena_rows` encoded, then frozen, so a table adopts them
    (:func:`~repro.storage.columns.adoptable_dictionary` adopts only a frozen
    dictionary) and charges each entry at the first insert that uses it."""
    from itertools import product

    words = [
        "".join(letters)
        for length in range(ARENA_WORD_MAX + 1)
        for letters in product(ARENA_WORD_LETTERS, repeat=length)
    ]
    dictionaries = make_dictionaries(ARENA_SCHEMA)
    for slot, domain in zip(STRING_SLOTS, (ARENA_GROUPS, words)):
        for value in domain:
            dictionaries[slot].encode(value)
        dictionaries[slot].freeze()
    return dictionaries


class ArenaModel:
    """``dict[key, list[row]]`` plus per-bucket spill lists and the
    documented byte rules — what :class:`BucketedHashTable` must equal."""

    def __init__(self, row_bytes: int, owns_dictionaries: bool, limit):
        self.row_bytes = row_bytes
        self.owns_dictionaries = owns_dictionaries
        self.limit = limit
        self.rows: dict[int, list[tuple]] = {}  # key -> [(sequence, values, arrival)]
        #: Every key held once since the last release: the arena's unique
        #: regime (one way out, the first duplicate; bucket questions keep it).
        self.unique = True
        self.sequence = 0
        self.flushed: set[int] = set()
        self.spill: list[list[tuple]] = [[] for _ in range(ARENA_BUCKETS)]
        self.charged = {slot: set() for slot in STRING_SLOTS}
        self.dictionary_bytes = 0

    @staticmethod
    def bucket(key: int) -> int:
        return hash((key,)) % ARENA_BUCKETS  # bucket identity hashes the key as a tuple

    def resident(self, bucket: int) -> list[tuple]:
        rows = [r for key, found in self.rows.items() if self.bucket(key) == bucket for r in found]
        return sorted(rows)

    @property
    def resident_rows(self) -> int:
        return sum(len(found) for found in self.rows.values())

    @property
    def used(self) -> int:
        return self.resident_rows * self.row_bytes + self.dictionary_bytes

    def fits(self, nbytes: int) -> bool:
        return self.limit is None or self.used + nbytes <= self.limit

    def _insert(self, values: tuple, arrival: float) -> None:
        self.unique = self.unique and values[0] not in self.rows
        self.rows.setdefault(values[0], []).append((self.sequence, values, arrival))
        self.sequence += 1
        for slot in STRING_SLOTS:
            if values[slot] not in self.charged[slot]:
                self.charged[slot].add(values[slot])
                self.dictionary_bytes += len(values[slot]) + 8

    def insert_position(self, values: tuple, arrival: float) -> bool:
        if not self.fits(self.row_bytes):
            return False
        self._insert(values, arrival)
        return True

    def insert_batch(self, rows, arrivals, picked, stop, marked, exact) -> int:
        # The whole-remainder form checks the row bytes once per batch, so
        # table-owned dictionary growth inside it is charged after the fact.
        whole = (
            not exact
            and self.owns_dictionaries
            and not self.flushed
            and self.fits(len(picked) * self.row_bytes)
        )
        for i in picked:
            bucket = self.bucket(rows[i][0])
            if bucket in self.flushed:
                self.spill[bucket].append((rows[i], arrivals[i], marked))
            elif whole:
                self._insert(rows[i], arrivals[i])
            elif not self.insert_position(rows[i], arrivals[i]):
                return i
        return stop

    def gather_matches(self, keys, positions, limit):
        probe = range(len(keys)) if positions is None else positions
        take, matches, once = [], [], True
        for position in probe:
            found = self.rows.get(keys[position])
            if not found:
                continue
            once = once and len(found) == 1
            take += [position] * len(found)
            matches += [(values, arrival) for _, values, arrival in found]
            if limit is not None and len(take) >= limit:
                break
        if not take:
            return None
        return take, matches, once and len(take) == len(keys) == len(probe)

    def flush_bucket(self, bucket: int, marked: bool) -> int:
        rows = self.resident(bucket)
        if rows:
            self.spill[bucket] += [(values, arrival, marked) for _, values, arrival in rows]
            for key in [key for key in self.rows if self.bucket(key) == bucket]:
                del self.rows[key]
        self.flushed.add(bucket)
        return len(rows)

    def flush_largest_bucket(self, marked: bool):
        sizes = [
            0 if bucket in self.flushed else len(self.resident(bucket))
            for bucket in range(ARENA_BUCKETS)
        ]
        if not max(sizes):
            return None
        victim = sizes.index(max(sizes))  # the first bucket with the largest count
        self.flush_bucket(victim, marked)
        return victim

    def flush_all(self, marked: bool) -> int:
        return sum(self.flush_bucket(bucket, marked) for bucket in range(ARENA_BUCKETS))

    def revoke_to(self, limit: int) -> None:
        self.limit = limit
        while self.used > self.limit and self.flush_largest_bucket(False) is not None:
            pass

    def release_all(self) -> None:
        self.rows = {}
        self.dictionary_bytes = 0
        self.unique = True


def arena_batch(rows, arrivals, dictionaries, run_length):
    from repro.storage.batch import Batch
    from repro.storage.columns import RunLengthArrivals, build_columns

    columns = [list(c) for c in zip(*rows)]
    if dictionaries is not None:
        columns = build_columns(ARENA_SCHEMA, columns, dictionaries)
    stamps = RunLengthArrivals(arrivals) if run_length else list(arrivals)
    return Batch.from_columns(ARENA_SCHEMA, columns, stamps)


def spilled(table, bucket):
    """Bucket's spilled rows read back in order: ``[(values, arrival, marked), ...]``."""
    return [
        row
        for chunk in table.spill_log.read_chunks(table.buckets[bucket])
        for row in zip(zip(*(list(c) for c in chunk.columns)), list(chunk.arrivals), chunk.marked)
    ]


class TestColumnArenaProperties:
    @given(
        ops=st.lists(arena_ops, min_size=10, max_size=50),
        coded_sources=st.booleans(),
        limit=st.one_of(st.none(), st.integers(150, 2500)),
        ask_from=st.integers(0, 50),
        quiet_until=st.one_of(st.just(0), st.integers(0, 30), st.just(99)),
        fresh_until=st.one_of(st.just(0), st.integers(0, 30), st.just(99)),
    )
    @settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    # Coded sources whose dictionaries the table did not adopt: it inserted
    # five rows where the model, which assumed adoption, inserted three.
    @example(
        ops=[("probe", 0, 0, 0, False)] * 2
        + [("position", 0, 0, 0, False), ("batch", 1, 0, 0, False)]
        + [("batch", 0, 0, 0, False)] * 8,
        coded_sources=True, limit=260, ask_from=0, quiet_until=0, fresh_until=0,
    )
    def test_random_interleavings_equal_the_naive_model(
        self, ops, coded_sources, limit, ask_from, quiet_until, fresh_until
    ):
        """``ask_from`` is the step from which every step ends by asking each
        bucket its size and rows.  Before it the table hears a bucket question
        only when an op is one (a flush, a revocation that has to flush) — and
        those are skipped before step ``quiet_until`` — so the untracked regime,
        the tracked one and the switch all run, and the table must be tracking
        exactly when it has been asked.  Before step ``fresh_until`` every
        inserted key is new, so a table stays in the unique-key regime for life
        (``fresh_until`` past the last step) or until its first duplicate
        (inside a batch, across batches, through ``insert_position``) —
        flushed, compacted and asked about its buckets along the way, which
        keep the regime — and the arena must be in the model's regime after
        every step."""
        from itertools import count
        from random import Random

        budget = MemoryBudget(limit)
        table = BucketedHashTable(
            ["t.k"], budget, SimulatedDisk(), bucket_count=ARENA_BUCKETS, schema=ARENA_SCHEMA
        )

        def on_revoke(shrunk):
            while shrunk.used_bytes > shrunk.limit_bytes:
                if table.flush_largest_bucket() is None:
                    break

        budget.on_revoke = on_revoke
        # One scan's batches share its frozen dictionaries (the table adopts them).
        dictionaries = frozen_arena_dictionaries() if coded_sources else None
        model = ArenaModel(ARENA_SCHEMA.encoded_row_size, not coded_sources, limit)
        asked = False  # has the table been asked a bucket question since its last release?
        fresh = count()
        for step, (kind, seed, low, high, flag) in enumerate(ops):
            random = Random(seed)
            if step < quiet_until and kind.startswith(("flush", "revoke")):
                continue
            if kind in ("batch", "position"):
                rows = arena_rows(random, fresh if step < fresh_until else None)
                n = len(rows)
                arrivals = [random.choice([0.0, 0.0, 1.0, 2.5]) for _ in rows]
                batch = arena_batch(rows, arrivals, dictionaries, coded_sources)
            if kind == "batch":
                form = random.choice(["rest", "rest", "stop", "positions"])
                start = min(low, high) * n // 100
                stop = n if form == "rest" else max(low, high) * n // 100
                picked = list(range(start, stop))
                positions = None
                if form == "positions":
                    picked = positions = [
                        i for i in picked
                        if random.random() < 0.7 and model.bucket(rows[i][0]) not in model.flushed
                    ]
                got = table.insert_batch(
                    batch, flag, None, start, None if form == "rest" else stop, positions
                )
                assert got == model.insert_batch(
                    rows, arrivals, picked, stop, flag, form != "rest"
                )
            elif kind == "position":
                at = low * (n - 1) // 100
                key = rows[at][0]
                if model.bucket(key) in model.flushed:
                    continue
                got = table.insert_position(
                    model.bucket(key), key, batch.columns, at, arrivals[at]
                )
                assert got == model.insert_position(rows[at], arrivals[at])
            elif kind == "probe":
                keys = [random.randrange(14) for _ in range(random.randint(1, 20))]
                positions = (
                    [i for i in range(len(keys)) if random.random() < 0.6] if flag else None
                )
                cap = None if low < 60 else 1 + high // 10
                got = table.gather_matches(keys, positions, cap)
                expected = model.gather_matches(keys, positions, cap)
                if expected is None:
                    assert got is None
                else:
                    take, columns, stamps, aligned = got
                    matches = list(zip(zip(*(list(c) for c in columns)), stamps))
                    assert (take, matches, aligned) == expected
            elif kind == "flush":
                index = low % ARENA_BUCKETS
                assert table.flush_bucket(index, flag) == model.flush_bucket(index, flag)
                asked = True
            elif kind == "flush_largest":
                assert table.flush_largest_bucket(flag) == model.flush_largest_bucket(flag)
                asked = True
            elif kind == "flush_all":
                assert table.flush_all(flag) == model.flush_all(flag)
                asked = True
            elif kind == "revoke":
                if budget.limit_bytes is None:
                    continue
                shrunk = model.used * (20 + low) // 100
                asked = asked or model.used > shrunk  # the handler chooses a victim
                budget.revoke_to(shrunk)
                model.revoke_to(shrunk)
            else:
                table.release_all()
                model.release_all()
                asked = False
            assert budget.used_bytes == table.resident_bytes == model.used
            assert table.resident_rows == model.resident_rows
            assert self.unique_regime(table) == model.unique
            table.check_accounting()
            assert table.flushed == [index in model.flushed for index in range(ARENA_BUCKETS)]
            # Inserts, probes, row counts and the check itself are not questions
            # (and checking a table never moves it out of its regime).
            assert (table._tracked is not None) == asked
            assert self.unique_regime(table) == model.unique
            if step >= max(ask_from, quiet_until):
                self.check_buckets(table, model)
                asked = True
        self.check_buckets(table, model)
        for index in range(ARENA_BUCKETS):
            assert spilled(table, index) == model.spill[index]

    @staticmethod
    def unique_regime(table) -> bool:
        """The regime the arena is in — or, before its first row, will start in."""
        return table.arena.unique if table.arena is not None else True

    @staticmethod
    def check_buckets(table, model):
        assert table.bucket_sizes() == [len(model.resident(i)) for i in range(ARENA_BUCKETS)]
        for index in range(ARENA_BUCKETS):
            columns, stamps = table.bucket_rows(index)
            assert list(zip(zip(*(list(c) for c in columns)), stamps)) == [
                (values, arrival) for _, values, arrival in model.resident(index)
            ]
        table.check_accounting()


# The spill log against one overflow file per bucket: random interleavings of
# every way a row reaches disk, from every source representation.

SPILL_PAGE = 128  # a small page, so page counts move inside a small example

spill_ops = st.tuples(
    st.sampled_from(
        ["batch"] * 4 + ["segment"] * 4 + ["position"] * 3 + ["row"] * 2 + ["flush"] * 4
        + ["flush_all"]
    ),
    st.integers(0, 2**16), percent, st.booleans(),
)


#: Join-key values of every kind a bucket hashes: ints (negative and past 64
#: bits), floats (integral ones hash as their int twin) and strings.
key_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)


@st.composite
def routing_cases(draw):
    """Keys of one arity (bare values for one column, tuples beyond), two
    tables' flag lists, the rows to split (a range or an ascending list) and
    ``first_only``."""
    arity = draw(st.integers(1, 3))
    count = draw(st.sampled_from([1, 3, 8, 64]))
    values = draw(st.lists(st.tuples(*[key_values] * arity), min_size=1, max_size=40))
    keys = [value[0] for value in values] if arity == 1 else values
    flags = st.lists(st.booleans(), min_size=count, max_size=count)
    n = len(keys)
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    if draw(st.booleans()):
        rows = range(start, stop)
    else:
        rows = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return arity, count, keys, draw(flags), draw(flags), rows, draw(st.booleans())


class TestRoutingProperties:
    @given(case=routing_cases())
    @settings(max_examples=examples(200), deadline=None)
    def test_bucket_column_and_split_equal_a_per_row_reference(self, case):
        """The bucket column is :func:`bucket_of` row by row (the key hashed
        as a tuple), and :func:`route_rows` over it and the two tables' flags
        is the row-at-a-time split: a row spills when its bucket is flushed in
        either table, and ``first_only`` ends the split at the first such row."""
        from operator import or_

        from repro.storage.hash_table import bucket_of, route_rows

        arity, count, keys, left, right, rows, first_only = case
        table = BucketedHashTable(
            [f"t.k{j}" for j in range(arity)], MemoryBudget(None), SimulatedDisk(), count
        )
        column = table.bucket_column(keys)
        assert column == [bucket_of(key, count) for key in keys]
        flushed = list(map(or_, left, right))
        live, spilled = [], []
        for i in rows:
            if left[bucket_of(keys[i], count)] or right[bucket_of(keys[i], count)]:
                spilled.append(i)
                if first_only:
                    break
            else:
                live.append(i)
        got_live, got_spilled = route_rows(column, flushed, rows, first_only)
        assert (list(got_live), list(got_spilled)) == (live, spilled)


class BucketFilesModel:
    """One overflow file per bucket, every row charged on its own by the
    documented rules — what the spill log's ledgers must add up to."""

    def __init__(self) -> None:
        self.rows: list[list[tuple]] = [[] for _ in range(ARENA_BUCKETS)]
        self.nbytes = [0] * ARENA_BUCKETS
        self.seen: list[set] = [set() for _ in range(ARENA_BUCKETS)]
        self.last: list = [None] * ARENA_BUCKETS

    def write(self, bucket: int, values: tuple, arrival: float, marked: bool, coded=True) -> None:
        """``coded`` false: the chunk carries its string columns as plain lists
        (a flush out of an arena whose column a misfit degraded)."""
        nbytes = 1 + (8 if arrival != self.last[bucket] else 0)
        self.last[bucket] = arrival
        for slot, (attribute, value) in enumerate(zip(ARENA_SCHEMA, values)):
            if slot in STRING_SLOTS and type(value) is str and (coded is True or coded[slot]):
                nbytes += 8
                if value not in self.seen[bucket]:  # once per file, whatever the column
                    self.seen[bucket].add(value)
                    nbytes += len(value) + 8
            else:
                nbytes += attribute.column_size
        self.rows[bucket].append((values, arrival, marked))
        self.nbytes[bucket] += nbytes


def spill_rows(random) -> list[tuple]:
    """Like :func:`arena_rows`, with the odd ``None`` in a string slot (a misfit)."""
    return [
        values if random.random() < 0.93 else (*values[:2], None, values[3])
        for values in arena_rows(random)
    ]


class TestSpillLogProperties:
    @given(ops=st.lists(spill_ops, min_size=5, max_size=40))
    @settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_byte_is_what_per_bucket_files_would_charge(self, ops):
        from random import Random
        from unittest import mock

        from repro.storage import disk as disk_module
        from repro.storage.columns import DictColumn, make_dictionaries

        disk = SimulatedDisk()
        table = BucketedHashTable(
            ["t.k"], MemoryBudget(None), disk, bucket_count=ARENA_BUCKETS, schema=ARENA_SCHEMA
        )
        model = BucketFilesModel()
        shared = make_dictionaries(ARENA_SCHEMA)
        flushed: set[int] = set()
        resident: list[list[tuple]] = [[] for _ in range(ARENA_BUCKETS)]
        plain = {slot: False for slot in STRING_SLOTS}  # arena column degraded by a misfit

        def keep(bucket, values, arrival):
            resident[bucket].append((values, arrival))
            for slot in STRING_SLOTS:
                plain[slot] = plain[slot] or values[slot] is None

        def flush(bucket, marked):
            coded = {slot: not plain[slot] for slot in STRING_SLOTS}
            for values, arrival in resident[bucket]:
                model.write(bucket, values, arrival, marked, coded)
            resident[bucket] = []
            flushed.add(bucket)

        with mock.patch.object(disk_module, "PAGE_SIZE_BYTES", SPILL_PAGE):
            for kind, seed, low, flag in ops:
                random = Random(seed)
                if kind == "flush":
                    bucket = low % ARENA_BUCKETS
                    assert table.flush_bucket(bucket, flag) == len(resident[bucket])
                    flush(bucket, flag)
                elif kind == "flush_all":
                    assert table.flush_all(flag) == sum(map(len, resident))
                    for bucket in range(ARENA_BUCKETS):
                        flush(bucket, flag)
                else:
                    rows = spill_rows(random)
                    arrivals = [random.choice([0.0, 0.0, 1.0, 2.5]) for _ in rows]
                    source = random.choice(["shared", "foreign", "absent"])
                    dictionaries = {"shared": shared, "absent": None}.get(
                        source, make_dictionaries(ARENA_SCHEMA)
                    )
                    batch = arena_batch(rows, arrivals, dictionaries, random.random() < 0.5)
                    assert (source == "absent") <= all(
                        type(c) is not DictColumn for c in batch.columns
                    )
                    buckets = [hash(values[:1]) % ARENA_BUCKETS for values in rows]
                    at = low * (len(rows) - 1) // 100
                if kind == "batch":
                    assert table.insert_batch(batch, flag) == len(rows)
                    for bucket, values, arrival in zip(buckets, rows, arrivals):
                        if bucket in flushed:
                            model.write(bucket, values, arrival, flag)
                        else:
                            keep(bucket, values, arrival)
                elif kind == "segment":
                    stop = None if flag else at
                    written = table.spill_segment(
                        batch.columns, arrivals, range(len(rows)), buckets, flag, stop
                    )
                    taken = range(len(rows) if stop is None else stop)
                    assert written == len(taken)
                    for i in taken:
                        model.write(buckets[i], rows[i], arrivals[i], flag)
                elif kind == "position":
                    table.spill_position(buckets[at], batch.columns, at, arrivals[at], flag)
                    model.write(buckets[at], rows[at], arrivals[at], flag)
                elif kind == "row":
                    row = Row(ARENA_SCHEMA, rows[at], arrivals[at])
                    assert insert_row(table, row, flag) == (buckets[at] not in flushed)
                    if buckets[at] in flushed:
                        model.write(buckets[at], rows[at], arrivals[at], flag)
                    else:
                        keep(buckets[at], rows[at], arrivals[at])
                written = sum(model.nbytes)
                assert disk.stats.bytes_written == written
                assert disk.stats.pages_written == written // SPILL_PAGE
                assert disk.stats.tuples_written == sum(map(len, model.rows))
            read = 0
            for index, bucket in enumerate(table.buckets):
                assert (bucket.spilled_count, bucket.spilled_bytes) == (
                    len(model.rows[index]), model.nbytes[index],
                )
                assert spilled(table, index) == model.rows[index]
                read += model.nbytes[index]
                assert disk.stats.bytes_read == read
                assert disk.stats.pages_read == read // SPILL_PAGE
            # The positional store of overflow resolution lists the same rows:
            # a bucket's spilled ones in write order, then its resident ones.
            columns, stamps, marked, rows, _ = table.overflow_store()
            for index in range(ARENA_BUCKETS):
                listed = [
                    (tuple(column[i] for column in columns), stamps[i], marked[i])
                    for i in rows.get(index, ())
                ]
                assert listed == model.rows[index] + [
                    (values, arrival, False) for values, arrival in resident[index]
                ]
            assert disk.stats.bytes_read == read  # laying the store out is free


class TestTimelineProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=50))
    @settings(max_examples=examples(60), deadline=None)
    def test_arrival_schedules_are_monotone(self, sizes):
        profile = NetworkProfile(initial_latency_ms=10.0, bandwidth_kbps=100.0, jitter_ms=0.0)
        arrivals = arrival_schedule(profile, sizes)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] >= 10.0


# ---------------------------------------------------------------------------
# Join correctness invariants
# ---------------------------------------------------------------------------


class TestJoinProperties:
    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_matches_reference_multiset(self, left, right):
        rows = run_join(DoublePipelinedJoin, left, right)
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_left_flush_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            DoublePipelinedJoin,
            left,
            right,
            memory_limit_bytes=LEFT_SCHEMA.tuple_size * 3,
            bucket_count=4,
            overflow_method=OverflowMethod.LEFT_FLUSH,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_symmetric_flush_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            DoublePipelinedJoin,
            left,
            right,
            memory_limit_bytes=LEFT_SCHEMA.tuple_size * 3,
            bucket_count=4,
            overflow_method=OverflowMethod.SYMMETRIC_FLUSH,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hybrid_hash_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            HybridHashJoin,
            left,
            right,
            memory_limit_bytes=RIGHT_SCHEMA.tuple_size * 3,
            bucket_count=4,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_join_cardinality_formula(self, left, right):
        rows = run_join(DoublePipelinedJoin, left, right)
        assert len(rows) == expected_join_size(left, right)


# The run-at-a-time batch drive against its oracles (the per-tuple reference,
# helpers.per_tuple_reference, and the naive join): random two-sided
# arrival timetables (ties, bursts, gaps wider than the 5 ms slack window),
# duplicate-key rates, memory limits, both overflow methods and batch sizes.

#: Inter-arrival gaps in ms: zero makes ties, the large ones exceed the slack window.
gaps = st.sampled_from([0.0, 0.0, 0.01, 0.3, 2.0, 7.0])


@st.composite
def timed_sides(draw, count=2):
    key_domain = draw(st.integers(min_value=1, max_value=12))
    sides = []
    for _ in range(count):
        size = draw(st.integers(min_value=0, max_value=70))
        side_keys = draw(
            st.lists(st.integers(0, key_domain - 1), min_size=size, max_size=size)
        )
        side_gaps = draw(st.lists(gaps, min_size=size, max_size=size))
        times, now = [], draw(st.sampled_from([0.5, 1.0, 4.0]))
        for gap in side_gaps:
            now += gap
            times.append(now)
        sides.append((side_keys, times))
    return sides


def timed_catalog(sides):
    """``l(k, p)`` / ``r(k, q)`` arriving on the drawn timetables; returns
    ``(catalog, left pairs, right pairs)``."""
    (left_keys, left_times), (right_keys, right_times) = sides
    left = [(key, f"p{i % 5}") for i, key in enumerate(left_keys)]
    right = [(key, f"q{i}") for i, key in enumerate(right_keys)]
    catalog = DataSourceCatalog()
    for name, payload, pairs, times in (
        ("l", "p", left, left_times),
        ("r", "q", right, right_times),
    ):
        schema = Schema.of("k:int", f"{payload}:str")
        relation = Relation(name, schema, (Row(schema, pair) for pair in pairs))
        profile = ScriptedProfile(name=name, timetable=tuple(times))
        catalog.register_source(DataSource(name, relation, profile))
    return catalog, left, right


def timed_join(memory, method):
    def build(context):
        return DoublePipelinedJoin(
            "join",
            context,
            WrapperScan("sl", context, "l"),
            WrapperScan("sr", context, "r"),
            ["l.k"],
            ["r.k"],
            memory_limit_bytes=memory,
            bucket_count=4,
            overflow_method=method,
        )

    return build


def containers(columns) -> list:
    """The mutable container behind each column: the list, or a dict column's codes."""
    return [column.codes if type(column) is DictColumn else column for column in columns]


def snapshot(batch):
    """What a batch holds, cell for cell, and the containers holding it."""
    columns = batch.columns
    return (
        [(type(c), id(held), list(held)) for c, held in zip(columns, containers(columns))],
        list(batch.arrivals),
    )


methods = st.sampled_from([OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH])


def nested_catalog(sides) -> DataSourceCatalog:
    """``a`` / ``b`` / ``c`` (``k``, a payload naming the row) on the drawn timetables."""
    catalog = DataSourceCatalog()
    for name, (side_keys, times) in zip("abc", sides):
        rows = [(key, f"{name}{i}") for i, key in enumerate(side_keys)]
        relation = make_relation(name, ["k:int", f"{name}s:str"], rows)
        profile = ScriptedProfile(name=name, timetable=tuple(times))
        catalog.register_source(DataSource(name, relation, profile))
    return catalog


def run_nested_dpj(sides, child_left, memory, batch_size):
    """Drain ``(a ⋈ b) ⋈ c`` (the child on the parent's left or right) with
    both joins double pipelined; returns the rows, each leaf row's stamp as
    a join took it in (by payload), and, over both joins, ``(emissions,
    emissions that compared stamps)``."""
    counts = [0, 0]
    leaf_stamps = {}
    emit, compare = DoublePipelinedJoin._emit_matches, double_pipelined.later_stamps
    buffer_run = DoublePipelinedJoin._buffer_run

    def recorded_run(self, side, batch):
        if len(batch.schema) == 2:  # a leaf scan's run
            leaf_stamps.update(zip(batch.columns[1], batch.arrivals))
        return buffer_run(self, side, batch)

    def counted_emit(self, *args):
        counts[0] += 1
        return emit(self, *args)

    def counted_compare(*args):
        counts[1] += 1
        return compare(*args)

    def build(context):
        scans = {name: WrapperScan(f"scan_{name}", context, name) for name in "abc"}
        child = DoublePipelinedJoin(
            "child", context, scans["a"], scans["b"], ["a.k"], ["b.k"],
            memory_limit_bytes=memory, bucket_count=4,
        )
        outer = (child, scans["c"]) if child_left else (scans["c"], child)
        keys = (["a.k"], ["c.k"]) if child_left else (["c.k"], ["a.k"])
        return DoublePipelinedJoin(
            "parent", context, *outer, *keys, memory_limit_bytes=memory, bucket_count=4
        )

    with patch.object(DoublePipelinedJoin, "_emit_matches", counted_emit), patch.object(
        double_pipelined, "later_stamps", counted_compare
    ), patch.object(DoublePipelinedJoin, "_buffer_run", recorded_run):
        rows, _, _ = drive_join(build, nested_catalog(sides), "columnar", batch_size=batch_size)
    return rows, leaf_stamps, tuple(counts)


def nested_reference(sides, child_left, stamp) -> Counter:
    """Every matching leaf triple, stamped with the latest of its three
    leaves' stamps (``stamp``: payload -> stamp)."""
    a_keys, b_keys, c_keys = (side_keys for side_keys, _ in sides)
    expected = Counter()
    for i, key in enumerate(a_keys):
        for j in (j for j, other in enumerate(b_keys) if other == key):
            for m in (m for m, other in enumerate(c_keys) if other == key):
                inner = (key, f"a{i}", key, f"b{j}")
                values = inner + (key, f"c{m}") if child_left else (key, f"c{m}") + inner
                expected[values, max(stamp[f"a{i}"], stamp[f"b{j}"], stamp[f"c{m}"])] += 1
    return expected


def stamped_multiset(rows) -> Counter:
    return Counter((row.values, row.arrival) for row in rows)


#: ``a`` arrives early, ``b`` late and ``c`` in between: the child's output
#: is stamped with ``b``'s late times while ``c`` already sits in the
#: parent's table, so the parent's probes meet table rows both later and
#: earlier than themselves.
NESTED_INVERSION = [
    ([0, 1, 2, 3] * 3, [1.0 + 0.5 * i for i in range(12)]),
    ([3, 2, 1, 0] * 3, [20.0 + 7.0 * i for i in range(12)]),
    ([0, 1, 2, 3] * 4, [10.0 + 4.0 * i for i in range(16)]),
]


#: One pull on the join: a plain batch, a bounded batch (rows arriving within
#: ``now + window``), or one row through ``next_row`` — which serves pending
#: columnar output through ``take_batch(..., 1)``.
pulls = st.one_of(
    st.tuples(st.just("batch"), st.sampled_from([1, 3, 7, 64]), st.none()),
    st.tuples(st.just("bounded"), st.sampled_from([3, 64]), st.sampled_from([0.0, 0.5, 6.0])),
    st.tuples(st.just("tuple"), st.just(1), st.none()),
)


class TestRunAtATimeProperties:
    @given(
        sides=timed_sides(),
        memory=st.sampled_from([None, 400, 900, 2500]),
        method=methods,
        batch_size=st.sampled_from([1, 7, 64, 256, 1024]),
    )
    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_drive_equals_the_row_batch_drive(self, sides, memory, method, batch_size):
        catalog, left, right = timed_catalog(sides)
        build = timed_join(memory, method)
        observed = {}
        for drive in ("columnar", "rows"):
            rows, context, join = drive_join(build, catalog, drive, batch_size=batch_size)
            stats = context.disk.stats
            observed[drive] = (
                [(row.values, row.arrival) for row in rows],
                join.overflow_count,
                (stats.tuples_written, stats.bytes_written, stats.tuples_read, stats.total_pages),
                context.clock.now,
            )
            assert join_multiset(rows) == reference_pairs(left, right)
        assert observed["columnar"] == observed["rows"]

    @given(
        sides=timed_sides(),
        unique_right=st.booleans(),
        memory=st.sampled_from([None, 400, 900]),
        method=methods,
        schedule=st.lists(pulls, max_size=6),
        revoke_at=st.one_of(st.none(), st.integers(0, 12)),
    )
    # A revocation the join cannot meet (only dictionary bytes left) once
    # raised out of ``revoke_to``.
    @example(
        sides=[([0] * 58, [4.0 + 2.0 * i for i in range(58)]), ([0] * 58, [1.0] * 58)],
        unique_right=False,
        memory=None,
        method=OverflowMethod.LEFT_FLUSH,
        schedule=[],
        revoke_at=1,
    )
    # Each right row meets 40 left rows: a 64-row pull overshoots by 16, so
    # the pending rows are handed out in place and the 16 move.
    @example(
        sides=[([0] * 40, [1.0 + i for i in range(40)]), ([0] * 3, [50.0, 51.0, 52.0])],
        unique_right=False,
        memory=None,
        method=OverflowMethod.LEFT_FLUSH,
        schedule=[],
        revoke_at=None,
    )
    @settings(max_examples=examples(80), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_a_batch_handed_out_is_never_touched_again(
        self, sides, unique_right, memory, method, schedule, revoke_at
    ):
        """The output accumulators *adopt* the columns an emission built, so a
        hand-over gives the consumer the accumulators themselves — in place,
        cut back, when fewer rows stay than go.  Whatever the pulls
        (foreign-key or many-to-many, flushes with cleanup, bounded and
        tuple pulls, a revocation mid-run): no later emission mutates a batch
        already handed out, and no accumulator is a column somebody else owns
        — a run batch's, an arena's, a source's cached export, a batch
        handed out."""
        if unique_right:  # the foreign-key case: every left row matches at most once
            right_keys, right_times = sides[1]
            first = [i for i, key in enumerate(right_keys) if key not in right_keys[:i]]
            sides = [sides[0], ([right_keys[i] for i in first], [right_times[i] for i in first])]
        catalog, left, right = timed_catalog(sides)
        context = ExecutionContext(catalog)
        join = timed_join(memory, method)(context)
        join.open()
        exports = [
            column for name in "lr" for column in catalog.source(name).encoded_column_cache()[0]
        ]
        exported = [list(held) for held in containers(exports)]
        runs = []  # every run the join ever buffered, kept alive: ids stay comparable
        buffer_run = join._buffer_run
        join._buffer_run = lambda side, batch: runs.append(buffer_run(side, batch)) or runs[-1]

        def ids(held):
            return {id(container) for container in held}

        def others():
            held = containers(exports)
            for run in runs:
                held += [*containers(run.batch.columns), run.batch.arrivals, run.arrivals, run.keys]
            for table in join._tables:
                if table.arena is not None:
                    held += [*containers(table.arena.columns), table.arena.arrivals]
            return ids(held)

        produced = []
        handed = []
        for step, (kind, size, window) in enumerate(cycle([*schedule, ("batch", 64, None)])):
            if step == revoke_at:
                join.budget.revoke_to(400)
            if kind == "tuple":
                row = next_row(join)
                if row is None:
                    break
                produced.append(row)
            else:
                if kind == "bounded":
                    batch = join.next_batch_bounded(size, context.clock.now + window)
                else:
                    batch = join.next_batch(size)
                    if not batch:
                        break
                context.batch_interrupt = False
                if batch:
                    handed.append((batch, snapshot(batch)))
            pending = ids([*containers(join._out.columns), join._out.arrivals])
            assert not pending & others()
            for batch, _ in handed:
                given_out = ids([*containers(batch.columns), batch.arrivals])
                assert not given_out & pending
                assert not given_out & others()
        join.close()
        for batch, before in handed:
            assert snapshot(batch) == before
            produced += batch
        assert [list(held) for held in containers(exports)] == exported
        assert join_multiset(produced) == reference_pairs(left, right)

    @given(
        sides=timed_sides(count=3),
        child_left=st.booleans(),
        memory=st.sampled_from([None, 900]),
        batch_size=st.sampled_from([1, 7, 64, 1024]),
    )
    @example(sides=NESTED_INVERSION, child_left=True, memory=None, batch_size=64)
    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_nested_dpj_stamps_are_the_latest_input_stamp(
        self, sides, child_left, memory, batch_size
    ):
        """A DPJ stamps each output row with the later of its two inputs
        (:func:`later_stamps`), so a tree of them stamps a row with the latest
        of its leaf rows — whether the opposite table's stamp bound let a
        segment take its own stamps uncompared or not."""
        rows, stamps, _ = run_nested_dpj(sides, child_left, memory, batch_size)
        assert stamped_multiset(rows) == nested_reference(sides, child_left, stamps)

    def test_nested_dpj_takes_both_stamp_paths(self):
        """The pinned profile puts a parent's table row later than a probe
        that matches it (compared) and earlier than others (taken uncompared)."""
        rows, stamps, (emits, compared) = run_nested_dpj(NESTED_INVERSION, True, None, 64)
        assert stamped_multiset(rows) == nested_reference(NESTED_INVERSION, True, stamps)
        assert 0 < compared < emits


# Write-through output and arena ingest against their gather-then-extend
# reference (helpers.gather_then_extend, helpers.GatherThenExtendDPJ): runs
# whose string columns carry the source's dictionary, no dictionary (a run
# built from rows, as a tie step hands over), a foreign one, or a misfit value
# that degrades the arena column it lands in.

#: How one scripted block carries its string column.
block_kinds = st.sampled_from(["source", "rows", "foreign", "misfit"])


class Dictionaries:
    """Every dictionary one build made, labelled in creation order; any other
    (a hash table's own) is labelled when first seen, so two builds' outputs
    compare by role, not by object."""

    def __init__(self):
        self.labels = {}  # id -> (label, the dictionary, kept alive so no id is reused)

    def new(self):
        dictionary = Dictionary()
        self.labels[id(dictionary)] = (f"made{len(self.labels)}", dictionary)
        return dictionary

    def label(self, dictionary):
        return self.labels.setdefault(id(dictionary), (f"seen{len(self.labels)}", dictionary))[0]

    def column(self, column):
        """A column by role: storage class, dictionary label and contents."""
        if type(column) is DictColumn:
            dictionary = column.dictionary
            return ("dict", self.label(dictionary), list(column.codes), list(dictionary.values))
        return (type(column).__name__, list(column))


@st.composite
def gather_cases(draw):
    """Target columns, sources and a pick for one ``gather_into`` call."""
    classes = st.sampled_from(["list", "dict0", "dict1", "frozen"])
    width = draw(st.integers(1, 3))
    targets = [(draw(classes), draw(st.lists(payloads, max_size=4))) for _ in range(width)]
    length = draw(st.integers(0, 8))
    sources = [
        (
            draw(st.sampled_from(["list", "misfit", "dict0", "dict1", "dict2"])),
            draw(st.lists(payloads, min_size=length, max_size=length)),
        )
        for _ in range(width)
    ]
    indices = draw(
        st.one_of(
            st.none(),
            st.builds(lambda a, b: range(min(a, b), max(a, b)), *[st.integers(0, length)] * 2),
            st.lists(st.integers(0, max(length - 1, 0)), max_size=10) if length else st.just([]),
        )
    )
    return targets, sources, indices, draw(st.booleans())


def build_gather_case(targets, sources):
    """Fresh target columns and sources for one case, with their dictionaries."""
    made = Dictionaries()
    shared = [made.new(), made.new()]

    def column(kind, values):
        if kind == "list":
            return list(values)
        if kind == "misfit":
            return [*values[:-1], None] if values else []
        dictionary = {"dict0": shared[0], "dict1": shared[1]}.get(kind) or made.new()
        column = build_column("str", values, dictionary)
        if kind == "frozen":
            dictionary.freeze()
        return column

    return made, [column(*t) for t in targets], [column(*s) for s in sources]


def scripted_block(made, schema, dictionary, kind, keys, stamps, salt):
    """One input batch: keys, a string column carried as ``kind``, stamps."""
    strings = [f"{salt}{key % 3}" for key in keys]
    if kind == "rows":
        return Batch.from_rows(
            schema, [Row.make(schema, pair, t) for pair, t in zip(zip(keys, strings), stamps)]
        )
    if kind == "misfit":
        column = [*strings[:-1], None]
    else:
        column = build_column("str", strings, dictionary if kind == "source" else made.new())
    return Batch.from_columns(schema, [list(keys), column], list(stamps))


@st.composite
def scripted_sides(draw):
    """Two inputs as lists of ``(kind, keys, stamps)`` blocks."""
    sides = []
    for _ in range(2):
        blocks, now = [], draw(st.sampled_from([0.5, 1.0]))
        for _ in range(draw(st.integers(0, 5))):
            size = draw(st.integers(1, 12))
            keys = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
            stamps = []
            for gap in draw(st.lists(gaps, min_size=size, max_size=size)):
                now += gap
                stamps.append(now)
            blocks.append((draw(block_kinds), keys, stamps))
        sides.append(blocks)
    return sides


def ids(columns) -> set:
    """Identities of the mutable containers behind ``columns``."""
    return {id(held) for held in containers(columns)}


class TestWriteThroughProperties:
    @given(case=gather_cases())
    @settings(max_examples=examples(150), deadline=None)
    def test_gather_into_equals_gather_then_extend(self, case):
        targets, sources, indices, encode = case
        observed = []
        for kernel in ("write-through", "reference"):
            made, columns, source_columns = build_gather_case(targets, sources)
            if kernel == "reference":
                gather_then_extend(columns, 0, source_columns, indices, encode)
            else:
                pick = None if indices is None else picker(indices)
                gather_into(columns, 0, source_columns, pick, encode)
            assert not ids(source_columns) & ids(columns)
            observed.append([made.column(column) for column in columns])
        assert observed[0] == observed[1]

    @given(
        sides=scripted_sides(),
        memory=st.sampled_from([None, 100, 200, 400]),
        method=methods,
        schedule=st.lists(pulls, max_size=6),
    )
    # A refusal at a segment's first row, unmatched, with later rows matched,
    # after the write-through degraded a pending column: none of its rows
    # stay, so the column goes back to the dict column it was — and is
    # handed out as one before any later write could degrade it again.
    @example(
        sides=[
            [
                (
                    "misfit",
                    [0, 0, 0, 2, 4, 2, 4, 0, 0, 3, 4, 2],
                    [0.5, 0.51, 2.51, 2.5199999999999996, 9.52, 11.52, 13.52, 20.52, 20.53,
                     22.53, 22.53, 24.53],
                )
            ],
            [
                ("foreign", [5, 0, 1, 4], [3.0, 5.0, 5.3, 12.3]),
                (
                    "source",
                    [5, 2, 4, 1, 4, 2, 4, 4, 2, 4],
                    [12.600000000000001, 12.600000000000001, 19.6, 26.6, 33.6, 33.6, 33.9,
                     34.199999999999996, 34.199999999999996, 34.199999999999996],
                ),
                (
                    "misfit",
                    [2, 2, 4, 0, 4, 2],
                    [34.199999999999996, 34.199999999999996, 34.199999999999996, 34.49999999999999,
                     34.50999999999999, 34.50999999999999],
                ),
                (
                    "foreign",
                    [5, 5, 1, 1, 4],
                    [34.80999999999999, 34.819999999999986, 34.819999999999986, 34.819999999999986,
                     41.819999999999986],
                ),
                (
                    "rows",
                    [3, 1, 4, 0, 3, 5, 4, 5],
                    [41.829999999999984, 41.829999999999984, 41.83999999999998, 41.83999999999998,
                     48.83999999999998, 55.83999999999998, 57.83999999999998, 64.83999999999997],
                ),
            ],
        ],
        memory=400,
        method=OverflowMethod.SYMMETRIC_FLUSH,
        schedule=[("batch", 1, None), ("batch", 1, None)],
    )
    @settings(max_examples=examples(80), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_write_through_output_equals_gather_then_extend(self, sides, memory, method, schedule):
        """Batch for batch, the join's output carries the values, stamps,
        storage classes and dictionaries the gather-then-extend oracle gives,
        and no accumulator or arena container is ever a run's own."""
        observed = []
        for join_cls in (DoublePipelinedJoin, GatherThenExtendDPJ):
            made = Dictionaries()
            context = ExecutionContext(DataSourceCatalog())
            children = []
            for name, payload, blocks in (("l", "p", sides[0]), ("r", "q", sides[1])):
                schema = Schema.of(f"{name}.k:int", f"{name}.{payload}:str")
                source = made.new()
                batches = [scripted_block(made, schema, source, *block, payload) for block in blocks]
                children.append(ScriptedRuns(f"s{name}", context, schema, batches))
            join = join_cls(
                "join", context, *children, ["l.k"], ["r.k"],
                memory_limit_bytes=memory, bucket_count=4, overflow_method=method,
            )
            join.open()
            runs = []
            buffer_run = join._buffer_run
            join._buffer_run = lambda side, batch: runs.append(buffer_run(side, batch)) or runs[-1]
            outputs = []
            for kind, size, window in cycle([*schedule, ("batch", 64, None)]):
                if kind == "tuple":
                    row = next_row(join)
                    if row is None:
                        break
                    outputs.append(("row", row.values, row.arrival))
                else:
                    if kind == "bounded":
                        batch = join.next_batch_bounded(size, context.clock.now + window)
                    else:
                        batch = join.next_batch(size)
                        if not batch:
                            break
                    context.batch_interrupt = False
                    outputs.append(
                        (list(batch.arrivals), [made.column(column) for column in batch.columns])
                    )
                owned = [*join._out.columns, join._out.arrivals]
                for table in join._tables:
                    if table.arena is not None:
                        owned += [*table.arena.columns, table.arena.arrivals]
                foreign = [c for run in runs for c in (*run.batch.columns, run.arrivals)]
                assert not ids(owned) & ids(foreign)
            observed.append((outputs, join.overflow_count, context.clock.now))
            join.close()
        assert observed[0] == observed[1]


# ---------------------------------------------------------------------------
# Threshold triggers: a rule's predicted count against every-row reporting
# ---------------------------------------------------------------------------

race_profiles = st.builds(
    NetworkProfile,
    initial_latency_ms=st.floats(min_value=0.0, max_value=30.0),
    bandwidth_kbps=st.sampled_from([8.0, 40.0, 400.0, 1250.0]),
    burst_size=st.integers(min_value=0, max_value=6),
    burst_gap_ms=st.floats(min_value=0.0, max_value=15.0),
    jitter_ms=st.sampled_from([0.0, 3.0]),
    seed=st.integers(min_value=0, max_value=3),
)

RACE_BOOKS = 30


class RecordingExecutor(QueryExecutor):
    """An executor that notes ``(subject, count)`` of the event behind every
    rule action it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []

    def _apply_action(self, action, event):
        self.fired.append((event.subject, event.value))
        super()._apply_action(action, event)


def race_catalog(main_profile, mirror_profile, mirror_order):
    """Two racing copies of one bibliography — the mirror a reordered,
    possibly partial copy — and a LAN backup."""
    books = [(i, f"book{i}") for i in range(RACE_BOOKS)]
    schema = ["isbn:int", "title:str"]
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("main", make_relation("bib", schema, books), main_profile))
    mirrored = [books[i] for i in mirror_order]
    catalog.register_source(
        DataSource("mirror", make_relation("bib", schema, mirrored), mirror_profile)
    )
    catalog.register_source(DataSource("backup", make_relation("bib", schema, books), lan()))
    return catalog


def run_race(catalog, condition, batch_size):
    """The race of Section 4.1 under ``condition``: whichever racer's
    ``threshold`` event satisfies it first deactivates the other."""
    children = [
        wrapper_scan(name, operator_id=f"scan_{name}") for name in ("main", "mirror", "backup")
    ]
    spec = collector(children, operator_id="coll")
    spec.params["dedup_keys"] = ["bib.isbn"]
    spec.params["initially_active"] = ["scan_main", "scan_mirror"]
    fragment = Fragment(fragment_id="f1", root=spec, result_name="answer")
    fragment.rules = [
        Rule(
            name=f"win-{winner}",
            owner="coll",
            event_type=EventType.THRESHOLD,
            subject=winner,
            condition=condition,
            actions=[deactivate(loser)],
        )
        for winner, loser in (("scan_main", "scan_mirror"), ("scan_mirror", "scan_main"))
    ]
    plan = QueryPlan(query_name="race", fragments=[fragment], answer_name="answer")
    context = ExecutionContext(catalog, query_name="race")
    executor = RecordingExecutor(context, batch_size=batch_size)
    outcome = executor.execute(plan)
    assert outcome.completed
    return (
        executor.fired,
        outcome.stats.rules_fired,
        context.operator("coll").tuples_per_child,
        outcome.answer.multiset(),
    )


class TestThresholdTriggerProperties:
    @given(
        bound=st.integers(min_value=0, max_value=RACE_BOOKS + 5),
        op=st.sampled_from([">=", ">"]),
        scale=st.sampled_from([1.0, 0.5, 0.75, 1.5, 2.0]),
        main_profile=race_profiles,
        mirror_profile=race_profiles,
        mirror_order=st.permutations(range(RACE_BOOKS)).flatmap(
            lambda order: st.integers(min_value=1, max_value=RACE_BOOKS).map(
                lambda kept: order[:kept]
            )
        ),
        batch_size=st.sampled_from([2, 16, 256, 1024]),
    )
    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    # A racer's trigger row is a duplicate, delivered after rows that were
    # kept: the batch must run on to the next kept row, as under every-row
    # reporting, and the mirror's trigger falls in that span too.
    @example(
        bound=1, op=">", scale=1.0,
        main_profile=NetworkProfile(initial_latency_ms=0.0, bandwidth_kbps=400.0),
        mirror_profile=NetworkProfile(initial_latency_ms=0.0, bandwidth_kbps=400.0),
        mirror_order=[1, 0], batch_size=2,
    )
    # The other racer's run after the winner's event is one row at a time,
    # or it carries rows past the first kept one into the loser's count.
    @example(
        bound=22, op=">", scale=1.0,
        main_profile=NetworkProfile(initial_latency_ms=13.0, bandwidth_kbps=8.0, jitter_ms=3.0),
        mirror_profile=NetworkProfile(initial_latency_ms=0.0, bandwidth_kbps=8.0),
        mirror_order=[*range(17), 21, 18, 19, 23, 22, 17], batch_size=2,
    )
    def test_predicted_trigger_fires_where_every_row_reporting_does(
        self, bound, op, scale, main_profile, mirror_profile, mirror_order, batch_size
    ):
        """A comparison of the event's count with a constant states the count
        it first holds at, and the racers' batches end there; the same rule
        made opaque (``& Always()``) has every row reported instead.  Both
        fire on the same event, at the same count, and leave the same
        answer and the same rows taken from each racer."""
        condition = Compare(event_value(), op, constant(bound), scale=scale)
        runs = [
            run_race(race_catalog(main_profile, mirror_profile, mirror_order), cond, batch_size)
            for cond in (condition, condition & Always())
        ]
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Relation algebra invariants
# ---------------------------------------------------------------------------


class TestRelationProperties:
    @given(pairs=pair_lists)
    @settings(max_examples=examples(60), deadline=None)
    def test_union_cardinality_adds(self, pairs):
        schema = Schema.of("k:int", "p:str")
        a = Relation("a", schema, (Row(schema, p) for p in pairs))
        b = Relation("b", schema, (Row(schema, p) for p in pairs))
        assert union_relations(a, b).cardinality == 2 * len(pairs)

    @given(pairs=pair_lists)
    @settings(max_examples=examples(60), deadline=None)
    def test_distinct_idempotent(self, pairs):
        schema = Schema.of("k:int", "p:str")
        rel = Relation("a", schema, (Row(schema, p) for p in pairs))
        once = distinct_rows(rel)
        twice = distinct_rows(once)
        assert once.multiset() == twice.multiset()
        assert once.cardinality == len(set(pairs))

    @given(pairs=pair_lists)
    @settings(max_examples=examples(60), deadline=None)
    def test_projection_preserves_cardinality(self, pairs):
        schema = Schema.of("k:int", "p:str")
        rel = Relation("a", schema, (Row(schema, p) for p in pairs))
        assert project_relation(rel, ["k"]).cardinality == rel.cardinality
