"""Encoding-layer edge cases: dictionary columns and run-length arrivals.

Covers the degradation paths (``None``/mixed-type values mid-batch,
high-cardinality dictionaries), dictionary merging on batch concat and spill
read-back, RLE arrival correctness under ``next_batch_bounded`` interrupts,
the canonical-string property (decoding never constructs strings), and the
no-boxing property: every mover hands over the very objects it was given.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.scan import TableScan
from repro.storage.batch import Batch, gather_arrivals, typed_transpose
from repro.storage.columns import (
    DICT_MAX_ENTRIES,
    ColumnarPartition,
    DictColumn,
    Dictionary,
    RunLengthArrivals,
    arrival_run_count,
    as_values,
    build_column,
    build_columns,
    compress_arrivals,
    empty_columns,
    empty_like,
    extend_column,
    extend_moving,
    gather,
    make_dictionaries,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import make_relation

SCHEMA = Schema.of("k:int", "name:str", "score:float")


class TestDictionary:
    def test_codes_are_dense_and_stable(self):
        d = Dictionary()
        assert d.encode("a") == 0
        assert d.encode("b") == 1
        assert d.encode("a") == 0
        assert d.values == ["a", "b"]
        assert len(d) == 2

    def test_bytes_used_counts_value_and_slot(self):
        d = Dictionary()
        d.encode("abc")
        assert d.bytes_used == 3 + 8

    def test_on_grow_fires_only_for_new_entries(self):
        d = Dictionary()
        grown = []
        d.on_grow = grown.append
        d.encode("abc")
        d.encode("abc")
        assert grown == [11]

    def test_non_string_raises_type_error(self):
        d = Dictionary()
        with pytest.raises(TypeError):
            d.encode(None)
        with pytest.raises(TypeError):
            d.encode(7)

    def test_capacity_exceeded_raises_value_error(self, monkeypatch):
        import repro.storage.columns as columns_module

        monkeypatch.setattr(columns_module, "DICT_MAX_ENTRIES", 2)
        d = Dictionary()
        d.encode("a")
        d.encode("b")
        with pytest.raises(ValueError):
            d.encode("c")
        assert DICT_MAX_ENTRIES > 2  # the real cap is generous


class TestDictColumn:
    def test_build_columns_encodes_strings(self):
        columns = build_columns(
            SCHEMA, [[1, 2], ["x", "y"], [0.5, 1.5]], encoded=True
        )
        assert type(columns[0]) is list and type(columns[2]) is list
        assert isinstance(columns[1], DictColumn)
        assert list(columns[1]) == ["x", "y"]
        # The codes are a plain list of the dictionary's own code objects.
        dictionary = columns[1].dictionary
        assert type(columns[1].codes) is list
        assert all(code is dictionary.codes[v] for code, v in zip(columns[1].codes, "xy"))

    def test_decoding_returns_canonical_objects(self):
        column = DictColumn()
        column.extend(["abc", "ab" + "c"])
        assert column[0] is column[1]  # one canonical string, two codes

    def test_gather_and_slice_share_dictionary(self):
        column = DictColumn()
        column.extend(["a", "b", "c", "a"])
        taken = gather(column, [0, 3])
        assert isinstance(taken, DictColumn)
        assert taken.dictionary is column.dictionary
        assert list(taken) == ["a", "a"]
        sliced = column[1:3]
        assert sliced.dictionary is column.dictionary
        assert list(sliced) == ["b", "c"]

    def test_same_dictionary_extend_moves_codes(self):
        d = Dictionary()
        a = DictColumn(d)
        a.extend(["x", "y"])
        b = DictColumn(d)
        b.extend(a)
        assert list(b.codes) == list(a.codes)

    def test_foreign_dictionary_extend_merges(self):
        a = DictColumn()
        a.extend(["x", "y"])
        b = DictColumn()
        b.extend(["y", "z"])
        a.extend(b)
        assert list(a) == ["x", "y", "y", "z"]
        # Codes were remapped into a's dictionary, not copied.
        assert a.dictionary.values == ["x", "y", "z"]

    def test_none_degrades_mid_batch(self):
        columns = empty_columns(SCHEMA, encoded=True)
        extend_column(columns, 1, ["x", "y"])
        assert isinstance(columns[1], DictColumn)
        extend_column(columns, 1, ["z", None])
        assert isinstance(columns[1], list)
        assert columns[1] == ["x", "y", "z", None]

    def test_mixed_type_append_degrades(self):
        from repro.storage.columns import append_value

        columns = [DictColumn()]
        append_value(columns, 0, "x")
        append_value(columns, 0, 42)
        assert isinstance(columns[0], list)
        assert columns[0] == ["x", 42]

    def test_build_column_falls_back_on_misfit(self):
        column = build_column("str", ["a", None, "b"], encoded=True)
        assert isinstance(column, list)
        assert column == ["a", None, "b"]

    def test_empty_like_shares_dictionary(self):
        column = DictColumn()
        column.extend(["a"])
        twin = empty_like(column)
        assert isinstance(twin, DictColumn)
        assert twin.dictionary is column.dictionary
        assert len(twin) == 0

    def test_as_values_decodes_once(self):
        column = DictColumn()
        column.extend(["a", "b", "a"])
        values = as_values(column)
        assert values == ["a", "b", "a"]
        assert values[0] is values[2]

    def test_equality_with_lists(self):
        column = DictColumn()
        column.extend(["a", "b"])
        assert column == ["a", "b"]
        assert not (column == ["a", "c"])


class TestFrozenDictionaries:
    """Shared translation caches freeze: foreign values degrade the consumer's
    column instead of permanently polluting the shared dictionary."""

    def test_frozen_dictionary_rejects_new_entries(self):
        d = Dictionary()
        d.encode("a")
        d.freeze()
        assert d.encode("a") == 0  # existing entries still resolve
        with pytest.raises(ValueError):
            d.encode("b")

    def test_concat_over_two_sources_does_not_pollute_either_cache(self):
        from repro.catalog.catalog import DataSourceCatalog
        from repro.engine.operators.union import Union
        from repro.engine.operators.scan import WrapperScan
        from repro.network.profiles import lan
        from repro.network.source import DataSource

        a = make_relation("rel", ["name:str"], [("a1",), ("a2",)])
        b = make_relation("rel", ["name:str"], [("b1",), ("b2",)])
        catalog = DataSourceCatalog()
        catalog.register_source(DataSource("src-a", a, lan()))
        catalog.register_source(DataSource("src-b", b, lan()))
        context = ExecutionContext(catalog)
        union = Union(
            "uni",
            context,
            [WrapperScan("sa", context, "src-a"), WrapperScan("sb", context, "src-b")],
        )
        union.open()
        rows = []
        while True:
            batch = union.next_batch(64)
            if not batch:
                break
            rows.extend(row.values[0] for row in batch.rows())
        union.close()
        assert sorted(rows) == ["a1", "a2", "b1", "b2"]
        # Neither source's persistent translation cache absorbed the other's
        # values (the union accumulator degraded instead).
        _, dicts_a = catalog.source("src-a").encoded_column_cache()
        _, dicts_b = catalog.source("src-b").encoded_column_cache()
        assert dicts_a[0].values == ["a1", "a2"]
        assert dicts_b[0].values == ["b1", "b2"]


class TestBatchDictionaryMerge:
    def test_concat_keeps_encoding_and_merges_dictionaries(self):
        schema = Schema.of("name:str")
        left = Batch.from_columns(
            schema, [build_column("str", ["a", "b"], encoded=True)], [0.0, 0.0]
        )
        right = Batch.from_columns(
            schema, [build_column("str", ["b", "c"], encoded=True)], [0.0, 0.0]
        )
        merged = Batch.concat(schema, [left, right])
        column = merged.columns[0]
        assert isinstance(column, DictColumn)
        # The accumulator shares the left part's dictionary; the right
        # part's codes were remapped into it.
        assert column.dictionary is left.columns[0].dictionary
        assert list(column) == ["a", "b", "b", "c"]

    def test_typed_transpose_with_persistent_dictionaries(self):
        dictionaries = make_dictionaries(SCHEMA)
        rows1 = [Row(SCHEMA, (1, "x", 0.5))]
        rows2 = [Row(SCHEMA, (2, "x", 1.5))]
        c1 = typed_transpose(SCHEMA, rows1, True, dictionaries)
        c2 = typed_transpose(SCHEMA, rows2, True, dictionaries)
        assert c1[1].dictionary is c2[1].dictionary
        assert list(c1[1].codes) == list(c2[1].codes)  # same value, same code


class TestSpillReadBack:
    def test_dictionary_merge_on_spill_read_back(self):
        """Chunks written from different dictionaries decode consistently."""
        from repro.storage.disk import SimulatedDisk

        schema = Schema.of("name:str")
        disk = SimulatedDisk()
        handle = disk.create_file(schema=schema)
        a = DictColumn()
        a.extend(["x", "y"])
        b = DictColumn()
        b.extend(["y", "z"])
        handle.write_columns([a], [1.0, 2.0], False)
        handle.write_columns([b], [3.0, 4.0], False)
        values = [row.values[0] for row, _ in handle.read()]
        assert values == ["x", "y", "y", "z"]


class TestRunLengthArrivals:
    def test_append_merges_equal_runs(self):
        arrivals = RunLengthArrivals()
        for value in [1.0, 1.0, 1.0, 2.0, 2.0]:
            arrivals.append(value)
        assert len(arrivals) == 5
        assert arrivals.run_count == 2
        assert list(arrivals) == [1.0, 1.0, 1.0, 2.0, 2.0]

    def test_random_access_and_negative_index(self):
        arrivals = RunLengthArrivals([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
        assert arrivals[0] == 1.0
        assert arrivals[2] == 2.0
        assert arrivals[5] == 3.0
        assert arrivals[-1] == 3.0
        with pytest.raises(IndexError):
            _ = arrivals[6]

    def test_slice_preserves_runs(self):
        arrivals = RunLengthArrivals([1.0] * 4 + [2.0] * 4)
        sliced = arrivals[2:6]
        assert isinstance(sliced, RunLengthArrivals)
        assert list(sliced) == [1.0, 1.0, 2.0, 2.0]
        assert sliced.run_count == 2

    def test_extend_merges_adjacent_runs_across_parts(self):
        a = RunLengthArrivals([1.0, 1.0])
        b = RunLengthArrivals([1.0, 2.0])
        a.extend(b)
        assert list(a) == [1.0, 1.0, 1.0, 2.0]
        assert a.run_count == 2

    def test_constant_run(self):
        arrivals = RunLengthArrivals.constant(5.0, 3)
        assert list(arrivals) == [5.0, 5.0, 5.0]
        assert arrivals.run_count == 1
        assert arrivals.last == 5.0

    def test_degrades_on_incompressible_stream(self):
        arrivals = RunLengthArrivals()
        for i in range(200):
            arrivals.append(float(i))  # strictly increasing: runs of one
        assert arrivals._plain is not None  # switched to the plain form
        assert arrivals[123] == 123.0
        assert len(arrivals) == 200

    def test_gather_recompresses(self):
        arrivals = RunLengthArrivals([1.0] * 5 + [2.0] * 5)
        taken = gather_arrivals(arrivals, [0, 1, 5, 6])
        assert isinstance(taken, RunLengthArrivals)
        assert list(taken) == [1.0, 1.0, 2.0, 2.0]

    def test_run_count_helper_and_compress(self):
        assert arrival_run_count([1.0, 1.0, 2.0]) == 2
        assert arrival_run_count([]) == 0
        compressed = compress_arrivals([7.0] * 10)
        assert isinstance(compressed, RunLengthArrivals)
        incompressible = compress_arrivals([float(i) for i in range(10)])
        assert isinstance(incompressible, list)

    def test_equality(self):
        assert RunLengthArrivals([1.0, 1.0]) == [1.0, 1.0]
        assert RunLengthArrivals([1.0, 1.0]) == RunLengthArrivals([1.0, 1.0])
        assert not (RunLengthArrivals([1.0]) == [2.0])


class TestTableScanRLE:
    """Local block scans stamp whole blocks: one run per block, and the
    bounded-batch protocol reads runs correctly."""

    def _scan(self, context):
        stored = make_relation(
            "stored", ["k:int", "v:str"], [(i, f"v{i % 5}") for i in range(50)]
        )
        context.local_store.materialize(stored)
        scan = TableScan("tscan", context, "stored")
        scan.open()
        return scan

    def _catalog(self):
        from repro.catalog.catalog import DataSourceCatalog

        return DataSourceCatalog()

    def test_table_scan_batches_carry_rle_arrivals(self):
        context = ExecutionContext(self._catalog())
        scan = self._scan(context)
        batch = scan.next_batch(20)
        assert isinstance(batch.arrivals, RunLengthArrivals)
        assert batch.arrivals.run_count == 1
        assert len(batch) == 20

    def test_table_scan_plain_mode_keeps_lists(self):
        context = ExecutionContext(
            self._catalog(), config=EngineConfig(encoded_columns=False)
        )
        scan = self._scan(context)
        batch = scan.next_batch(20)
        assert isinstance(batch.arrivals, list)

    def test_bounded_batches_respect_rle_arrivals(self):
        """next_batch_bounded over RLE-stamped batches: the generic bounded
        fallback peeks arrivals; interrupting mid-stream must not lose or
        duplicate rows, and concatenating the pieces preserves stamps."""
        context = ExecutionContext(self._catalog())
        scan = self._scan(context)
        pieces = []
        # Rows are stamped "now"; a bound above now admits them.
        bound = context.clock.now + 1.0
        while True:
            piece = scan.next_batch_bounded(7, bound)
            if not piece:
                break
            pieces.append(piece)
        total = Batch.concat(scan.output_schema, pieces)
        assert len(total) == 50
        assert [row.values[0] for row in total.rows()] == list(range(50))
        # Each bounded piece is stamped with one "now" (the clock advances
        # between pulls), so the stamps collapse to one run per piece — far
        # fewer than one stamp per row.
        assert arrival_run_count(total.arrivals) == len(pieces)
        assert len(pieces) < 50


# -- no boxing, stated as identity -----------------------------------------------------------
#
# A column holds the objects it was given and every mover copies pointers: what
# comes out *is* what went in.  A packed buffer cannot pass — it boxes a fresh
# object per read, cannot hold an int past 64 bits and turns an int under a
# float-typed attribute into a float — and neither can a code column that
# re-makes its ints: the dictionaries below start 300 entries in, past
# CPython's small-int cache.

MOVER_SCHEMA = Schema.of("t.k:int", "t.score:float", "t.name:str")

mover_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(-3, 3), st.integers(2**63, 2**66)),
        st.one_of(st.floats(allow_nan=False), st.integers(0, 9)),
        st.sampled_from(["a", "b", "c", "dd"]),
    ),
    min_size=1,
    max_size=24,
)


def deep_dictionaries():
    dictionaries = make_dictionaries(MOVER_SCHEMA)
    for filler in range(300):
        dictionaries[2].encode(f"filler{filler}")
    return dictionaries


def assert_same_cells(column, cells):
    """``column`` holds exactly the objects ``cells``; a dict column holds its
    dictionary's own code objects and decodes to its own strings."""
    assert len(column) == len(cells)
    if type(column) is DictColumn:
        codes, values = column.dictionary.codes, column.dictionary.values
        assert type(column.codes) is list
        assert all(code is codes[cell] for code, cell in zip(column.codes, cells))
        assert all(out is values[codes[cell]] for out, cell in zip(column, cells))
    else:
        assert type(column) is list
        assert all(out is cell for out, cell in zip(column, cells))


@settings(max_examples=80, deadline=None)
@given(rows=mover_rows, data=st.data(), encoded=st.booleans())
def test_every_mover_hands_over_the_objects_it_was_given(rows, data, encoded):
    n = len(rows)
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="indices")
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    source = [list(column) for column in zip(*rows)]  # the objects that go in

    def check(columns, positions):
        for column, cells in zip(columns, source):
            assert_same_cells(column, [cells[i] for i in positions])

    columns = build_columns(MOVER_SCHEMA, source, encoded, deep_dictionaries() if encoded else None)
    assert type(columns[2]) is (DictColumn if encoded else list)
    check(columns, range(n))
    check([gather(column, indices) for column in columns], indices)
    check([column[lo:hi] for column in columns], range(lo, hi))
    for extend in (extend_column, extend_moving):
        grown = [empty_like(column) for column in columns]
        for j, column in enumerate(columns):
            extend(grown, j, column[:lo])
            extend(grown, j, gather(column, indices))
        check(grown, [*range(lo), *indices])

    batch = Batch.from_columns(MOVER_SCHEMA, columns, [float(i) for i in range(n)])
    assert batch.key_tuples([0]) is columns[0]
    check(batch.take(indices).columns, indices)
    check(batch.slice(lo, hi).columns, range(lo, hi))
    parts = [batch.slice(lo, hi), batch.take(indices), batch]
    check(Batch.concat(MOVER_SCHEMA, parts).columns, [*range(lo, hi), *indices, *range(n)])

    # Into an arena (its own dictionaries: the strings re-encode) and out again.
    moved = [*range(lo, hi), *indices]
    store = ColumnarPartition(MOVER_SCHEMA, encoded, deep_dictionaries() if encoded else None)
    store.extend_gather(columns, batch.arrivals, columns[0], range(lo, hi))
    store.extend_gather(columns, batch.arrivals, columns[0], indices)
    check(store.columns, moved)
    at = list(range(len(moved)))[::-2]
    gathered, arrivals = store.gather_rows(at)
    check(gathered, [moved[i] for i in at])
    assert all(a is batch.arrivals[moved[i]] for a, i in zip(arrivals, at))

    # Onto disk in two chunks and back as the one merged log.
    spill = SimulatedDisk(encoded=encoded).create_file(schema=MOVER_SCHEMA)
    spill.write_gather(columns, batch.arrivals, range(lo, hi))
    spill.write_gather(columns, batch.arrivals, indices)
    log = spill.read_log()
    if moved:
        check(log.columns, moved)
    else:
        assert log is None
