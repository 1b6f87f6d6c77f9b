"""The spill log end to end: the shared spill-join against the row oracles,
write proportionality, and spill-state lifetime."""

import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.plan.physical import OverflowMethod
from repro.storage.batch import Batch
from repro.storage.disk import OverflowFile, SimulatedDisk
from repro.storage.hash_table import BucketedHashTable, bucket_of, stable_bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import Row, counting_row_constructions

from helpers import drive_join, multiset, recording_calls, reference_join, spill_marks

METHODS = [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
BUCKETS = 2


def open_join(join_cls, catalog, **kwargs):
    context = ExecutionContext(catalog)
    join = join_cls(
        "join", context, WrapperScan("l", context, "ord"), WrapperScan("r", context, "item"),
        ["ord.o_id"], ["item.i_order"], bucket_count=BUCKETS, **kwargs,
    )
    join.open()
    return context, join


def side_rows(table, keys, label, start):
    """One row per key, stamped ``start, start + 1, ...`` and told apart by ``label``."""
    width = len(table.schema)
    return [
        Row(table.schema, (key, f"{label}{i}", i)[:width], float(start + i))
        for i, key in enumerate(keys)
    ]


def spill_late(table, rows, marked):
    """Late arrivals: half through the segment writer, half row by row."""
    batch = Batch.from_rows(table.schema, rows)
    batch = Batch.from_columns(table.schema, batch.columns, batch.arrivals)
    half = len(rows) // 2
    spills: dict = {}
    for i, row in enumerate(rows[:half]):
        spills.setdefault(bucket_of(row.values[0], BUCKETS), []).append(i)
    table.spill_segment(batch.columns, list(batch.arrivals), spills, marked)
    for row in rows[half:]:
        table.spill_log.write(row, marked, table.bucket_for_key(row.values[0]))


def prepared_dpj(catalog, method):
    """A double pipelined join stopped right before its cleanup phase, both
    sides holding duplicate keys in every marked / unmarked state."""
    context, join = open_join(DoublePipelinedJoin, catalog, overflow_method=method)
    left, right = join._tables
    keys = [1, 1, 2, 3, 3, 4]
    for table, label in ((left, "L"), (right, "R")):
        for row in side_rows(table, keys, label + "u", 0):
            assert table.insert(row)
    victim = bucket_of(1, BUCKETS)
    left.flush_bucket(victim)  # resident when flushed: unmarked, on disk
    if method is OverflowMethod.SYMMETRIC_FLUSH:
        right.flush_bucket(victim)
    # Arrivals after the flush never probed (marked); one per side probed and
    # then spilled with its own bucket (unmarked).
    for table, label in ((left, "L"), (right, "R")):
        spill_late(table, side_rows(table, keys * 2, label + "m", 10), True)
        spill_late(table, side_rows(table, [1, 3], label + "p", 40), False)
    return context, join, Counter(keys)


def stamped(rows):
    return [(row.values, row.arrival) for row in rows]


class TestSpillJoinAgainstTheRowOracle:
    @pytest.mark.parametrize("method", METHODS)
    def test_dpj_cleanup_equals_the_row_pairs(self, joinable_catalog, method):
        context, join, keys = prepared_dpj(joinable_catalog, method)
        oracle_context, oracle, _ = prepared_dpj(joinable_catalog, method)
        with counting_row_constructions() as counter:
            batches = list(join._cleanup_batches_iter())
            assert counter.count == 0
        rows = [row for batch in batches for row in batch]
        assert stamped(rows) == stamped(oracle._cleanup_pairs())
        assert context.disk.stats == oracle_context.disk.stats
        assert context.clock.now == oracle_context.clock.now
        # Every pair of the spilled buckets but unmarked x unmarked: a side
        # holds each key once resident-or-flushed, twice marked, and keys 1
        # and 3 once more unmarked.
        spilled = [
            b for b in range(BUCKETS) if any(t.buckets[b].spilled_count for t in join._tables)
        ]
        expected = 0
        for key, count in keys.items():
            if bucket_of(key, BUCKETS) in spilled:
                unmarked = count + (key in (1, 3))
                expected += (unmarked + 2 * count) ** 2 - unmarked ** 2
        assert len(rows) == expected > 0
        marks = {(lm, rm) for lm in (True, False) for rm in (True, False)}
        assert marks - {(False, False)} == self.mark_pairs(rows)

    @staticmethod
    def mark_pairs(rows):
        """Which (left marked, right marked) combinations the output holds —
        the row labels carry the state (``m`` marked; ``u`` / ``p`` unmarked)."""
        return {(row.values[1][1] == "m", row.values[3][1] == "m") for row in rows}

    def test_hybrid_overflow_pass_equals_the_row_pairs(self, joinable_catalog):
        def prepared():
            context, join = open_join(HybridHashJoin, joinable_catalog)
            inner, outer = join._inner_table, join._outer_table
            keys = [1, 1, 2, 3, 3, 4]
            for row in side_rows(inner, keys, "I", 0):
                assert inner.insert(row)
            for index in range(BUCKETS):
                inner.flush_bucket(index)
            for row in side_rows(inner, keys, "J", 10):  # the build goes on: straight to disk
                assert not inner.insert(row)
            spill_late(outer, side_rows(outer, keys * 2, "O", 20), False)
            return context, join

        context, join = prepared()
        oracle_context, oracle = prepared()
        with counting_row_constructions() as counter:
            batches = list(join._overflow_pair_batches())
            assert counter.count == 0
        rows = [row for batch in batches for row in batch]
        assert stamped(rows) == stamped(oracle._overflow_pairs())
        # Every key is there twice over on both sides: 2c x 2c pairs for a key held c times.
        assert len(rows) == sum(4 * c * c for c in (2, 1, 2, 1))
        assert context.disk.stats == oracle_context.disk.stats
        assert context.clock.now == oracle_context.clock.now


class TestKeyFormMovesNothing:
    """Keys stopped being 1-tuples (PR 18); bucket identity still hashes the
    tuple, so every bucket, lane, victim, spilled byte and virtual millisecond
    is what it was.  The constants were recorded on the parent commit."""

    #: ``helpers.spill_fingerprints()`` at 43d3615 under ``PYTHONHASHSEED=0``.
    GOLDEN = {
        "dpj_left": {
            "victims": "l8 l17 l29 l34 l46 l55 l60 l0 l3 l4 l5 l7 l9 l11 l12 l13 l14 l16 l20 l21 "
            "l25 l26 l28 l30 l31 l32 l33 l35 l37 l38 l39 l42 l43 l47 l49 l50 l51 l52 l54 l56 l58 "
            "l59 l63 r0 r5 r8 r2 r61 r40 r23 r1 r6 r10 r15 r17",
            "bytes_written": 41559, "pages": [5, 5], "overflow_events": 55,
            "clock": 44.097000000000556, "rows": 800,
        },
        "dpj_symmetric": {
            "victims": "l8 r8 l17 r17 l0 r0 l26 r26 l5 r5 l29 r29 l34 r34 l43 r43 l46 r46 l55 r55 "
            "l60 r60 l52 r52 l49 r49 l28 r28 l32 r32 l11 r11 l14 r14 l31 r31 l23 r23 l2 r2 l3 r3 "
            "l58 r58 l20 r20 l37 r37 l63 r63 l61 r61 l40 r40 l7 r7 l12 r12 l4 r4 l16 r16 l21 r21 "
            "l25 r25 l50 r50",
            "bytes_written": 39148, "pages": [4, 4], "overflow_events": 34,
            "clock": 39.45000000000054, "rows": 800,
        },
        "hybrid": {
            "victims": "i0 i49 i28 i11 i8 i29 i32 i20 i17 i34 i46 i26 i55 i5 i60 i43 i14 i23 i52 "
            "i31 i61 i37 i2 i40 i58",
            "bytes_written": 32028, "pages": [3, 3], "overflow_events": 25,
            "clock": 41.47400000000054, "rows": 800,
        },
        "dpj_left_str": {
            "victims": "l35 l14 l9 l25 l29 l37 l49 l1 l3 l5 l7 l8 l11 l16 l23 l24 l31 l38 l48 l54 "
            "l58 l63 l6 l13 l15 l17 l19 l27 l28 l32 l36 l39 l40 l43 l44 l46 l47 l50 l53 l55 l56 "
            "l57 l60 r35 r25 r29 r1 r3 r5 r7 r8 r4 r11 r14 r22 r41 r2 r18 r59 r0 r52",
            "bytes_written": 33754, "pages": [4, 4], "overflow_events": 61,
            "clock": 52.68599999999939, "rows": 800,
        },
    }

    def test_overflow_decisions_and_charges_are_the_parents(self):
        # String buckets follow the builtin hash: pin the seed in a child.
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c",
             "import json, helpers; print(json.dumps(helpers.spill_fingerprints()))"],
            capture_output=True, text=True, check=True, cwd=root,
            env={**os.environ, "PYTHONHASHSEED": "0",
                 "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])},
        )
        measured = json.loads(result.stdout)
        for plan, golden in self.GOLDEN.items():
            assert measured[plan] == golden, plan

    @pytest.mark.parametrize("value", [0, 7, -3, 2**40, "abc", "", 3.5, 2.0, None, True])
    def test_a_scalar_key_buckets_and_routes_as_its_tuple(self, value):
        for count in (1, 2, 8, 64):
            assert bucket_of(value, count) == bucket_of((value,), count) == hash((value,)) % count
            assert stable_bucket_of(value, count) == stable_bucket_of((value,), count)

    def test_composite_keys_bucket_and_route_as_before(self):
        for key in [(1, 2), ("abc", 3), (None, 2.5), (7, "x", 0)]:
            assert bucket_of(key, 64) == hash(key) % 64
        # Lane assignments pinned since PR 9 (tests/test_exchange.py), scalar form included.
        assert [stable_bucket_of(key, 4) for key in (3.5, None, True, (42, "x"))] == [1, 2, 0, 3]
        assert [stable_bucket_of(key, 8) for key in (7, 1, (7,), (1,))] == [6, 3, 6, 3]


class TestSpillWritesAreProportional:
    """A bulk write per spilling segment and per bucket flush — not per
    (segment, bucket), which is what one overflow file per bucket cost."""

    def run(self, tpcd_catalog, tiny_tpcd, build):
        with recording_calls(OverflowFile, "write_columns") as writes, recording_calls(
            BucketedHashTable, "spill_segment"
        ) as segments, recording_calls(BucketedHashTable, "flush_bucket") as flushes:
            rows, context, _ = drive_join(build, tpcd_catalog, "columnar")
        reference = reference_join(
            tiny_tpcd["partsupp"], tiny_tpcd["part"], "ps_partkey", "p_partkey"
        )
        assert multiset(rows) == multiset(reference)
        spilling = [result for _, _, result in segments if result]
        flushed = [result for _, _, result in flushes if result]
        groups = sum(
            len([found for found in args[3].values() if found]) for args, _, _ in segments
        )
        assert len(writes) == len(spilling) + len(flushed)
        assert context.disk.stats.chunks_written == len(writes)
        assert len(spilling) * 2 < groups  # the segments really do scatter over buckets
        return context

    @pytest.mark.parametrize("method", METHODS)
    def test_dpj(self, tpcd_catalog, tiny_tpcd, method):
        def build(context):
            return DoublePipelinedJoin(
                "dpj", context, WrapperScan("l", context, "partsupp"),
                WrapperScan("r", context, "part"), ["partsupp.ps_partkey"], ["part.p_partkey"],
                memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20, bucket_count=16,
                overflow_method=method,
            )

        context = self.run(tpcd_catalog, tiny_tpcd, build)
        marked, unmarked = spill_marks(context)
        assert marked and unmarked

    def test_hybrid(self, tpcd_catalog, tiny_tpcd):
        def build(context):
            return HybridHashJoin(
                "hybrid", context, WrapperScan("l", context, "partsupp"),
                WrapperScan("r", context, "part"), ["partsupp.ps_partkey"], ["part.p_partkey"],
                memory_limit_bytes=len(tiny_tpcd["part"]) * 20, bucket_count=16,
            )

        self.run(tpcd_catalog, tiny_tpcd, build)


class TestSpillStateLifetime:
    def test_disk_and_files_are_freed_without_a_collection(self):
        """Files record into the disk's stats and never hold the disk, so there
        is no ``disk <-> file`` cycle for a collection to break."""
        schema = Schema.of("k:int", "v:int")
        gc.collect()
        gc.disable()
        try:
            disk = SimulatedDisk()
            table = BucketedHashTable(
                ["k"], MemoryBudget(None), disk, bucket_count=2, schema=schema
            )
            for key in range(8):
                table.insert(Row(schema, (key, key)))
            table.flush_all()
            plain = disk.create_file("plain")
            plain.write(Row(Schema.of("s:str"), ("x",)))
            assert disk.stats.tuples_written == 9
            alive = [weakref.ref(disk), weakref.ref(table.spill_log), weakref.ref(plain)]
            del disk, table, plain
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()

    def test_a_table_that_owns_its_dictionaries_is_freed_without_a_collection(self):
        """A table-owned dictionary's growth hook holds the table's charge object
        (budget + byte count), never the table: no ``table <-> dictionary`` cycle."""
        schema = Schema.of("k:int", "v:str")
        gc.collect()
        gc.disable()
        try:
            budget = MemoryBudget(None)
            table = BucketedHashTable(["k"], budget, SimulatedDisk(), bucket_count=2, schema=schema)
            for key in range(8):  # row by row: no donor column, so the table owns the dictionary
                table.insert(Row(schema, (key, f"value-{key}")))
            table.flush_bucket(0)
            assert table._owned_slots and not table._adopted_slots
            assert table.dictionary_bytes == 8 * (len("value-0") + 8)
            assert budget.used_bytes == table.resident_bytes
            dictionary = table._owned_slots[0][1]
            alive = [weakref.ref(table), weakref.ref(table.spill_log)]
            del table
            assert [ref() for ref in alive] == [None, None]
            # The hook outlives the table with whoever still shares the dictionary,
            # and keeps charging the same budget.
            used = budget.used_bytes
            dictionary.encode("late")
            assert budget.used_bytes == used + len("late") + 8
        finally:
            gc.enable()

    @pytest.mark.parametrize("method", METHODS)
    def test_a_spilling_join_frees_its_context_without_a_collection(self, tpcd_catalog, method):
        gc.collect()
        gc.disable()
        try:
            context = ExecutionContext(tpcd_catalog)
            join = DoublePipelinedJoin(
                "dpj", context, WrapperScan("l", context, "partsupp"),
                WrapperScan("r", context, "part"), ["partsupp.ps_partkey"], ["part.p_partkey"],
                memory_limit_bytes=4000, bucket_count=8, overflow_method=method,
            )
            join.open()
            while join.next_batch(256):
                pass
            join.close()
            assert context.disk.stats.tuples_written > 0
            alive = [weakref.ref(context), weakref.ref(context.disk)]
            alive += [weakref.ref(file) for file in context.disk.files.values()]
            del context, join
            assert not any(ref() for ref in alive)
        finally:
            gc.enable()
