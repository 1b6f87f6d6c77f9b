"""Unit tests for repro.storage.disk."""

import pytest

from repro.errors import StorageError
from repro.storage.columns import DICT_CODE_BYTES, DICT_SLOT_BYTES, build_columns
from repro.storage.disk import MARK_BIT_BYTES, PAGE_SIZE_BYTES, SimulatedDisk
from repro.storage.schema import ARRIVAL_STAMP_BYTES, Schema
from repro.storage.tuples import Row, counting_row_constructions

from helpers import read_rows, spill_row

SCHEMA = Schema.of("a:str", "b:str", "c:str")

#: Bytes charged per spilled row whose values the file already holds and
#: whose stamp continues the current arrival run: one dictionary code per
#: column plus the marked bit carried as one more column.
SPILL_ROW_BYTES = len(SCHEMA) * DICT_CODE_BYTES + MARK_BIT_BYTES

#: Bytes one new one-character dictionary entry charges (value + slot pointer).
ENTRY_BYTES = 1 + DICT_SLOT_BYTES

#: What the first spill of the ``row`` fixture adds on top: its three
#: dictionary entries and the arrival run it opens.
FIRST_ROW_EXTRA_BYTES = 3 * ENTRY_BYTES + ARRIVAL_STAMP_BYTES


@pytest.fixture
def disk():
    return SimulatedDisk()


@pytest.fixture
def row():
    return Row(SCHEMA, ("x", "y", "z"))


class TestOverflowFile:
    def test_write_and_read_preserves_order_and_marks(self, disk, row):
        handle = disk.create_file("spill", schema=SCHEMA)
        spill_row(handle, row, marked=False)
        spill_row(handle, row, marked=True)
        contents = read_rows(handle)
        assert [marked for _, marked in contents] == [False, True]

    def test_write_after_close_rejected(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        handle.close()
        with pytest.raises(StorageError):
            spill_row(handle, row)

    def test_peek_does_not_charge_io(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, row)
        reads_before = disk.stats.tuples_read
        assert sum(map(len, handle.peek())) == 1
        assert disk.stats.tuples_read == reads_before

    def test_len(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, row)
        spill_row(handle, row)
        assert len(handle) == 2


class TestSimulatedDisk:
    def test_unique_file_names(self, disk):
        names = {disk.create_file("x").name for _ in range(5)}
        assert len(names) == 5

    def test_tuple_and_byte_accounting(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, row)
        read_rows(handle)
        assert disk.stats.tuples_written == 1
        assert disk.stats.tuples_read == 1
        assert disk.stats.bytes_written == SPILL_ROW_BYTES + FIRST_ROW_EXTRA_BYTES
        assert disk.stats.bytes_read == SPILL_ROW_BYTES + FIRST_ROW_EXTRA_BYTES

    def test_pages_accumulate_across_tuples(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        tuples_per_page = PAGE_SIZE_BYTES // SPILL_ROW_BYTES + 1
        for _ in range(tuples_per_page):
            spill_row(handle, row)
        assert disk.stats.pages_written >= 1

    def test_io_time_since_snapshot(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        tuples_per_page = PAGE_SIZE_BYTES // SPILL_ROW_BYTES + 1
        for _ in range(tuples_per_page):
            spill_row(handle, row)
        snapshot = disk.stats.snapshot()
        assert disk.io_time_ms(snapshot) == 0.0
        for _ in range(tuples_per_page):
            spill_row(handle, row)
        assert disk.io_time_ms(snapshot) > 0.0
        assert disk.io_time_ms() >= disk.io_time_ms(snapshot)


class TestColumnarSpill:
    """The batch-granular (chunk) spill format: marked bit as a column."""

    def test_write_columns_seals_one_chunk(self, disk):
        handle = disk.create_file("chunk", schema=SCHEMA)
        columns = build_columns(SCHEMA, [["x", "y"], ["a", "b"], ["p", "q"]])
        handle.write_columns(columns, [1.0, 2.0], True)
        # Two rows of codes and marks, six dictionary entries, two arrival runs.
        nbytes = 2 * SPILL_ROW_BYTES + 6 * ENTRY_BYTES + 2 * ARRIVAL_STAMP_BYTES
        assert len(handle) == 2
        assert disk.stats.chunks_written == 1
        assert disk.stats.tuples_written == 2
        assert disk.stats.bytes_written == nbytes
        chunks = list(handle.read_chunks())
        assert len(chunks) == 1
        assert chunks[0].marked == [True, True]
        assert chunks[0].arrivals == [1.0, 2.0]
        assert disk.stats.chunks_read == 1
        assert disk.stats.bytes_read == nbytes

    def test_write_gather_selects_positions(self, disk):
        handle = disk.create_file("gather", schema=SCHEMA)
        columns = [["x0", "x1", "x2"], ["y0", "y1", "y2"], ["z0", "z1", "z2"]]
        handle.write_gather(columns, [1.0, 2.0, 3.0], [0, 2])
        (chunk,) = handle.read_chunks()
        assert chunk.columns[0] == ["x0", "x2"]
        assert chunk.arrivals == [1.0, 3.0]
        assert chunk.marked == [False, False]

    def test_row_and_chunk_writes_charge_identical_bytes(self, disk):
        """The per-row kernel and a gathered chunk of plain string lists (what
        a batch built from rows carries) agree on bytes: the file encodes both."""
        columns = [["x", "u"], ["y", "v"], ["z", "w"]]
        row_file = disk.create_file("rows", schema=SCHEMA)
        for index in range(2):
            row_file.write_position(columns, index, 0.0, marked=True)
        per_row = disk.stats.bytes_written
        chunk_file = disk.create_file("chunks", schema=SCHEMA)
        chunk_file.write_gather(columns, [0.0, 0.0], [0, 1], True)
        assert disk.stats.bytes_written == 2 * per_row
        assert read_rows(row_file, charge=False) == read_rows(chunk_file, charge=False)

    def test_chunk_paths_box_no_rows(self, disk):
        """Spill write/read hot paths must not construct Row objects."""
        handle = disk.create_file("boxfree", schema=SCHEMA)
        columns = [["x0", "x1"], ["y0", "y1"], ["z0", "z1"]]
        with counting_row_constructions() as counter:
            handle.write_columns([c[:] for c in columns], [1.0, 2.0], False)
            handle.write_gather(columns, [1.0, 2.0], [0, 1], marked=True)
            handle.write_position(columns, 1, 2.0, marked=True)
            assert sum(len(chunk) for chunk in handle.read_chunks()) == 5
            assert counter.count == 0

    def test_read_preserves_marked_bits_across_mixed_writes(self, disk, row):
        handle = disk.create_file("mixed", schema=SCHEMA)
        spill_row(handle, row, marked=False)
        handle.write_columns([["x"], ["y"], ["z"]], [0.0], True)
        spill_row(handle, row, marked=True)
        assert [marked for _, marked in read_rows(handle)] == [False, True, True]


class TestEncodedSpill:
    """Dictionary-coded string columns and RLE arrivals in spill chunks."""

    def make_dict_columns(self, values_per_column):
        from repro.storage.columns import DictColumn

        columns = []
        for values in values_per_column:
            column = DictColumn()
            column.extend(values)
            columns.append(column)
        return columns

    def test_per_row_write_charges_encoded_footprint(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, row)
        # 3 codes (8B each) + 3 new one-char dictionary entries (1+8B each)
        # + one arrival run (8B) + mark bit.
        first = 3 * 8 + 3 * 9 + 8 + 1
        assert disk.stats.bytes_written == first
        # Same values, same arrival: codes only, no new entries, no new run.
        spill_row(handle, row)
        assert disk.stats.bytes_written == first + 3 * 8 + 1

    def test_chunk_write_charges_dictionary_once_per_file(self, disk):
        handle = disk.create_file(schema=SCHEMA)
        columns = self.make_dict_columns([["x", "x"], ["y", "y"], ["z", "z"]])
        handle.write_columns(columns, [1.0, 2.0], False)
        first = disk.stats.bytes_written
        # 6 codes + 3 entries + 2 arrival runs + 2 marks.
        assert first == 6 * 8 + 3 * 9 + 2 * 8 + 2
        # A second chunk over the same dictionaries: entries already carried.
        again = [c.gather([0, 1]) for c in columns]
        handle.write_columns(again, [3.0, 4.0], False)
        assert disk.stats.bytes_written == first + 6 * 8 + 2 * 8 + 2

    def test_row_and_chunk_writes_charge_identical_bytes(self, disk):
        values = [["x", "u"], ["y", "v"], ["z", "w"]]
        row_file = disk.create_file("rows", schema=SCHEMA)
        for index in range(2):
            row_file.write_position(values, index, 0.0, marked=True)
        per_row = disk.stats.bytes_written
        chunk_file = disk.create_file("chunks", schema=SCHEMA)
        columns = self.make_dict_columns(values)
        chunk_file.write_columns(columns, [0.0, 0.0], True)
        # The chunk's arrival column collapses to one run where the per-row
        # path wrote two equal stamps merged into one run as well.
        assert disk.stats.bytes_written == 2 * per_row
        assert read_rows(row_file, charge=False) == read_rows(chunk_file, charge=False)

    def test_arrival_runs_span_chunk_boundaries(self, disk):
        handle = disk.create_file(schema=Schema.of("k:int"))
        handle.write_columns([[1, 2]], [5.0, 5.0], False)
        first = disk.stats.bytes_written
        # Next chunk starts at the same stamp: no new arrival run charged.
        handle.write_columns([[3]], [5.0], False)
        assert disk.stats.bytes_written == first + 8 + 1

    def test_read_charges_what_write_charged(self, disk, row):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, row)
        columns = self.make_dict_columns([["x"], ["y"], ["z"]])
        handle.write_columns(columns, [9.0], False)
        for chunk in handle.read_chunks():
            assert chunk.byte_size > 0
        assert disk.stats.bytes_read == disk.stats.bytes_written

    def test_readback_decodes_to_canonical_strings(self, disk):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, Row(SCHEMA, ("x", "y", "z")))
        spill_row(handle, Row(SCHEMA, ("x", "y", "z")))
        with counting_row_constructions() as counter:
            (chunk,) = list(handle.read_chunks())
            assert counter.count == 0
        # Both occurrences decode to the same canonical string object.
        assert chunk.columns[0][0] is chunk.columns[0][1]

    def test_rle_arrivals_stored_when_compressible(self, disk):
        from repro.storage.columns import RunLengthArrivals

        handle = disk.create_file(schema=Schema.of("k:int"))
        handle.write_columns([[1, 2, 3, 4]], [7.0, 7.0, 7.0, 7.0], False)
        (chunk,) = list(handle.read_chunks())
        assert isinstance(chunk.arrivals, RunLengthArrivals)
        assert list(chunk.arrivals) == [7.0, 7.0, 7.0, 7.0]

    def test_misfit_value_degrades_tail_column(self, disk):
        handle = disk.create_file(schema=SCHEMA)
        spill_row(handle, Row(SCHEMA, ("x", "y", "z")))
        spill_row(handle, Row(SCHEMA, ("x", None, "z")))
        values = [r.values for r, _ in read_rows(handle, charge=False)]
        assert values == [("x", "y", "z"), ("x", None, "z")]
