"""Simulated disk for overflow files (columnar, optionally encoded, spill format).

The paper's overflow-resolution analysis (Section 4.2.3) counts tuple I/Os:
tuples written to bucket overflow files and read back for the recursive
hybrid-hash pass.  :class:`SimulatedDisk` provides exactly that accounting —
operators write and read :class:`OverflowFile` objects and the disk tracks
tuple and page counts plus the virtual time spent, so benchmarks can report
I/O costs alongside latencies.

Spill files store *columnar chunks*: one column per attribute, a parallel
arrival-stamp column, and the marked/unmarked bit of the double pipelined
join's duplicate-avoidance discipline as one more column.  Whole bucket
flushes and batch spills move column sets in a single call with one
block-level accounting charge; the per-row ``write``/``read`` API remains
for tuple-at-a-time callers (and as the row-spill baseline the spill
benchmark measures against) and boxes rows only at that boundary.

Byte accounting is *representation-faithful*: each chunk is charged what its
columns actually cost.  A dictionary-encoded string column spills as 8-byte
codes plus each referenced dictionary entry once per file (actual value
bytes plus a slot pointer — the file has to carry the dictionary to be
readable); a run-length arrival column charges one stamp per run, counted
across chunk boundaries so per-row and chunk writes of the same tuple
sequence charge identical bytes; plain columns charge the estimated
columnar value size exactly as before.  The page-count model divides the
same (now smaller) byte totals by :data:`PAGE_SIZE_BYTES`, so compressed
spill directly reduces the virtual I/O time the clock observes.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.batch import gather_arrivals
from repro.storage.columns import (
    DICT_CODE_BYTES,
    DICT_SLOT_BYTES,
    _DEGRADE_ERRORS,
    DictColumn,
    RunLengthArrivals,
    append_value,
    arrival_run_count,
    compress_arrivals,
    empty_columns,
    gather as gather_column,
    make_dictionaries,
)
from repro.storage.schema import ARRIVAL_STAMP_BYTES, Schema
from repro.storage.tuples import Row

#: Bytes per simulated disk page.  TPC-D era systems used 4-8 KB pages.
PAGE_SIZE_BYTES = 8192

#: Bytes charged per row for the marked-bit column carried by spill files.
MARK_BIT_BYTES = 1


@dataclass
class DiskStats:
    """Counters accumulated by a :class:`SimulatedDisk`."""

    tuples_written: int = 0
    tuples_read: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    pages_written: int = 0
    pages_read: int = 0
    chunks_written: int = 0
    chunks_read: int = 0

    @property
    def total_tuple_ios(self) -> int:
        """Total tuple I/O operations (reads + writes), the paper's cost metric."""
        return self.tuples_written + self.tuples_read

    @property
    def total_pages(self) -> int:
        return self.pages_written + self.pages_read

    def snapshot(self) -> "DiskStats":
        """Copy of the current counters."""
        return DiskStats(
            self.tuples_written,
            self.tuples_read,
            self.bytes_written,
            self.bytes_read,
            self.pages_written,
            self.pages_read,
            self.chunks_written,
            self.chunks_read,
        )


class SpillChunk:
    """One columnar block of a spill file.

    ``columns`` holds the attribute columns (possibly dict-encoded),
    ``arrivals`` the parallel arrival stamps (possibly run-length encoded),
    and ``marked`` the marked-bit column (one bool per row).  ``byte_size``
    is the encoded footprint the chunk was charged on write; reads charge
    the same, so compressed chunks are exactly as cheap to re-read as they
    were to spill.
    """

    __slots__ = ("columns", "arrivals", "marked", "byte_size")

    def __init__(
        self,
        columns: list,
        arrivals,
        marked: list[bool],
        byte_size: int = 0,
    ) -> None:
        self.columns = columns
        self.arrivals = arrivals
        self.marked = marked
        self.byte_size = byte_size

    def __len__(self) -> int:
        return len(self.arrivals)


class OverflowFile:
    """A spill file holding rows flushed from a hash bucket.

    Rows may carry a *marked* flag, used by the double pipelined join's
    overflow algorithms to remember which tuples arrived after their bucket
    was flushed (the paper's duplicate-avoidance marking).  Contents live as
    :class:`SpillChunk` columnar blocks; per-row writes accumulate into an
    open tail chunk, bulk writes seal one chunk per call.

    With ``encoded`` true (inherited from the disk by default), the tail
    chunk's string columns dictionary-encode into file-owned dictionaries
    and its arrival column run-length encodes; chunks moved wholesale by
    ``write_columns`` keep whatever encoding their producer used.  See the
    module docstring for the byte-charging model.
    """

    def __init__(
        self,
        disk: "SimulatedDisk",
        name: str,
        schema: Schema | None = None,
        encoded: bool | None = None,
    ) -> None:
        self._disk = disk
        self.name = name
        self.schema = schema
        self.encoded = disk.encoded if encoded is None else encoded
        self._chunks: list[SpillChunk] = []
        self._tail: SpillChunk | None = None
        self._count = 0
        self.closed = False
        # Encoded-spill bookkeeping: fallback file-owned dictionaries for
        # tail chunks whose writers carry no dictionary of their own, the
        # set of dictionary *values* already charged to this file (a file
        # stores each distinct string once, no matter which producer's
        # dictionary coded it — and no matter how the writer's drive mode
        # shaped the chunks), and the last arrival written (runs span chunk
        # boundaries so the per-row and chunk write paths charge identical
        # bytes).
        self._dictionaries: list | None = None
        self._charged_values: set[str] = set()
        self._last_arrival: float | None = None

    # -- sizing ------------------------------------------------------------------

    def _row_bytes(self) -> int:
        """Plain columnar byte estimate per spilled row (incl. marked bit)."""
        assert self.schema is not None
        return self.schema.columnar_row_size + MARK_BIT_BYTES

    def _adopt_schema(self, schema: Schema) -> None:
        if self.schema is None:
            self.schema = schema

    def __len__(self) -> int:
        return self._count

    # -- encoded-spill accounting helpers ------------------------------------------

    def _dictionary_charge(self, dictionary, codes) -> int:
        """Bytes for dictionary entries this file has not stored yet."""
        seen = self._charged_values
        values = dictionary.values
        total = 0
        for code in set(codes):
            value = values[code]
            if value not in seen:
                seen.add(value)
                total += len(value) + DICT_SLOT_BYTES
        return total

    def _column_bytes(self, attribute, column, count: int) -> int:
        """Representation-faithful charge for one spilled column."""
        if type(column) is DictColumn:
            return DICT_CODE_BYTES * count + self._dictionary_charge(
                column.dictionary, column.codes
            )
        return attribute.column_size * count

    def _arrival_bytes(self, arrivals) -> int:
        """Arrival-column charge: one stamp per run in encoded mode.

        Runs continue across chunk boundaries (tracked via the last written
        stamp), so splitting one tuple sequence into many chunks never
        charges more than writing it row by row.
        """
        count = len(arrivals)
        if not count:
            return 0
        if not self.encoded:
            self._last_arrival = arrivals[count - 1]
            return ARRIVAL_STAMP_BYTES * count
        runs = arrival_run_count(arrivals)
        if self._last_arrival is not None and arrivals[0] == self._last_arrival:
            runs -= 1
        self._last_arrival = arrivals[count - 1]
        return ARRIVAL_STAMP_BYTES * runs

# -- writing ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"overflow file {self.name!r} is closed")

    def _tail_chunk(self, source_columns: Sequence | None = None) -> SpillChunk:
        """The open tail chunk, creating one when absent.

        In encoded mode a new tail's dict-encoded slots *adopt* the writer's
        dictionaries when ``source_columns`` carries dict columns (so
        positional spills move raw codes and create no per-file
        dictionaries); slots with no donor fall back to file-owned
        dictionaries, created once per file.
        """
        if self._tail is None:
            assert self.schema is not None
            if self.encoded:
                if self._dictionaries is None:
                    self._dictionaries = make_dictionaries(self.schema)
                dictionaries = self._dictionaries
                if source_columns is not None:
                    dictionaries = [
                        source.dictionary
                        if (own is not None and type(source) is DictColumn)
                        else own
                        for own, source in zip(dictionaries, source_columns)
                    ]
                columns = empty_columns(self.schema, True, dictionaries)
                arrivals: "RunLengthArrivals | list[float]" = RunLengthArrivals()
            else:
                columns = empty_columns(self.schema)
                arrivals = []
            self._tail = SpillChunk(columns, arrivals, [])
            self._chunks.append(self._tail)
        return self._tail

    def _append_row(
        self, values: Sequence[Any], arrival: float, marked: bool
    ) -> None:
        """Shared per-row write: append to the tail chunk and charge bytes.

        NOTE: the encode-and-charge rules here are intentionally duplicated
        in :meth:`write_position` (which layers a raw-code fast path on
        top); both sit on per-tuple spill paths too hot for a shared
        per-value helper.  Change the charging model in both places.
        """
        chunk = self._tail_chunk()
        columns = chunk.columns
        if self.encoded:
            nbytes = MARK_BIT_BYTES
            if self._last_arrival is None or arrival != self._last_arrival:
                nbytes += ARRIVAL_STAMP_BYTES
            self._last_arrival = arrival
            attributes = self.schema.attributes
            seen = self._charged_values
            for position, value in enumerate(values):
                column = columns[position]
                if type(column) is DictColumn:
                    dictionary = column.dictionary
                    try:
                        code = dictionary.encode(value)
                    except _DEGRADE_ERRORS:
                        # Misfit: the column degrades to an object list (the
                        # standard repair) and charges the plain estimate.
                        nbytes += attributes[position].column_size
                        append_value(columns, position, value)
                        continue
                    nbytes += DICT_CODE_BYTES
                    if value not in seen:
                        seen.add(value)
                        nbytes += len(value) + DICT_SLOT_BYTES
                    column.codes.append(code)
                else:
                    nbytes += attributes[position].column_size
                    append_value(columns, position, value)
        else:
            nbytes = self._row_bytes()
            self._last_arrival = arrival
            for position, value in enumerate(values):
                append_value(columns, position, value)
        chunk.arrivals.append(arrival)
        chunk.marked.append(marked)
        chunk.byte_size += nbytes
        self._count += 1
        self._disk._record_write(nbytes)

    def write(self, row: Row, marked: bool = False) -> None:
        """Append one row to the file, accounting for the write I/O."""
        self._check_open()
        self._adopt_schema(row.schema)
        self._append_row(row.values, row.arrival, marked)

    def write_all(self, rows: Sequence[Row], marked: bool = False) -> None:
        """Append many rows."""
        for row in rows:
            self.write(row, marked)

    def write_position(
        self,
        source_columns: Sequence[Sequence[Any]],
        index: int,
        arrival: float,
        marked: bool = False,
    ) -> None:
        """Append one row by position from batch/run columns — no row boxing.

        When the tail chunk's dict-encoded slots share the source's
        dictionaries (they adopt them on tail creation), string values move
        as raw codes — no decode, no re-encode, no per-value Python call.

        NOTE: the fallback branches duplicate :meth:`_append_row`'s
        encode-and-charge rules on purpose (hot path); keep the two in
        lockstep when changing the charging model.
        """
        self._check_open()
        if not self.encoded:
            self._append_row(
                tuple(source[index] for source in source_columns), arrival, marked
            )
            return
        chunk = self._tail_chunk(source_columns)
        columns = chunk.columns
        nbytes = MARK_BIT_BYTES
        if self._last_arrival is None or arrival != self._last_arrival:
            nbytes += ARRIVAL_STAMP_BYTES
        self._last_arrival = arrival
        attributes = self.schema.attributes
        seen = self._charged_values
        for position, column in enumerate(columns):
            source = source_columns[position]
            if (
                type(column) is DictColumn
                and type(source) is DictColumn
                and column.dictionary is source.dictionary
            ):
                code = source.codes[index]
                column.codes.append(code)
                nbytes += DICT_CODE_BYTES
                value = column.dictionary.values[code]
                if value not in seen:
                    seen.add(value)
                    nbytes += len(value) + DICT_SLOT_BYTES
                continue
            value = source[index]
            if type(column) is DictColumn:
                dictionary = column.dictionary
                try:
                    code = dictionary.encode(value)
                except _DEGRADE_ERRORS:
                    nbytes += attributes[position].column_size
                    append_value(columns, position, value)
                    continue
                nbytes += DICT_CODE_BYTES
                if value not in seen:
                    seen.add(value)
                    nbytes += len(value) + DICT_SLOT_BYTES
                column.codes.append(code)
            else:
                nbytes += attributes[position].column_size
                append_value(columns, position, value)
        chunk.arrivals.append(arrival)
        chunk.marked.append(marked)
        chunk.byte_size += nbytes
        self._count += 1
        self._disk._record_write(nbytes)

    def write_columns(
        self,
        columns: list,
        arrivals,
        marked: "bool | list[bool]" = False,
    ) -> None:
        """Append a whole column set as one sealed chunk (one block charge).

        Ownership of ``columns``/``arrivals`` transfers to the file — this is
        how a bucket flush hands the rows it gathered out of its table's
        arena to disk without a second copy.  The chunk keeps its producer's
        encoding (dict-code columns stay codes; the arrival column is
        run-length compressed when that pays off).
        """
        self._check_open()
        count = len(arrivals)
        if count == 0:
            return
        marks = marked if isinstance(marked, list) else [marked] * count
        self._tail = None
        if self.encoded:
            assert self.schema is not None
            nbytes = MARK_BIT_BYTES * count + self._arrival_bytes(arrivals)
            for attribute, column in zip(self.schema, columns):
                nbytes += self._column_bytes(attribute, column, count)
            arrivals = compress_arrivals(arrivals)
        else:
            nbytes = self._row_bytes() * count
            self._last_arrival = arrivals[count - 1]
        self._chunks.append(SpillChunk(columns, arrivals, marks, nbytes))
        self._count += count
        self._disk._record_write_block(nbytes, count)

    def write_gather(
        self,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        indices: Sequence[int],
        marked: bool = False,
    ) -> None:
        """Append the rows of ``source_columns`` at ``indices`` as one chunk.

        Gathers preserve the source storage class, so dict-encoded columns
        spill as code gathers (sharing the source dictionary) and the chunk
        is charged the encoded footprint.  In an encoded file, plain string
        columns (a transposed row-backed batch carries them) encode through
        the file-owned dictionaries first, exactly as the per-row writers
        do, so the same tuples charge the same bytes whichever way they are
        written; a misfit value sends the rows down the per-row path.
        """
        if not indices:
            return
        columns = [gather_column(column, indices) for column in source_columns]
        if self.encoded and self.schema is not None:
            if self._dictionaries is None:
                self._dictionaries = make_dictionaries(self.schema)
            for position, dictionary in enumerate(self._dictionaries):
                if dictionary is not None and type(columns[position]) is list:
                    encoded_column = DictColumn(dictionary)
                    try:
                        encoded_column.extend(columns[position])
                    except _DEGRADE_ERRORS:
                        for index in indices:
                            self.write_position(
                                source_columns, index, source_arrivals[index], marked
                            )
                        return
                    columns[position] = encoded_column
        arrivals = gather_arrivals(source_arrivals, indices)
        self.write_columns(columns, arrivals, marked)

    # -- reading -------------------------------------------------------------------

    def read_chunks(self) -> Iterator[SpillChunk]:
        """Yield the file's chunks, charging read I/O at block granularity.

        Each chunk charges exactly the bytes it was charged on write, so an
        encoded spill is as cheap to re-read as it was to write.
        """
        for chunk in self._chunks:
            count = len(chunk)
            if count:
                self._disk._record_read_block(chunk.byte_size, count)
            yield chunk

    def read(self) -> Iterator[tuple[Row, bool]]:
        """Yield ``(row, marked)`` pairs, accounting for the read I/O.

        This is the row-at-a-time view: each spilled tuple is boxed back into
        a :class:`Row` — the re-boxing cost the columnar readers avoid.
        Values of dict-encoded columns decode to the dictionary's canonical
        string objects (no per-row string construction).
        """
        schema = self.schema
        make = Row.make  # repro: allow[hot-path-row] row-at-a-time spill view re-boxes by design
        for chunk in self.read_chunks():
            columns = chunk.columns
            for i, (arrival, marked) in enumerate(zip(chunk.arrivals, chunk.marked)):
                values = tuple(column[i] for column in columns)
                yield make(schema, values, arrival), marked

    def peek(self) -> list[tuple[Row, bool]]:
        """Contents without charging I/O (for tests and debugging)."""
        schema = self.schema
        make = Row.make  # repro: allow[hot-path-row] debugging/test peek, never on the hot path
        out: list[tuple[Row, bool]] = []
        for chunk in self._chunks:
            columns = chunk.columns
            for i, (arrival, marked) in enumerate(zip(chunk.arrivals, chunk.marked)):
                out.append((make(schema, tuple(c[i] for c in columns), arrival), marked))
        return out

    def close(self) -> None:
        """Mark the file read-only."""
        self.closed = True


class SimulatedDisk:
    """Creates overflow files and accumulates I/O statistics.

    Parameters
    ----------
    page_read_ms / page_write_ms:
        Virtual milliseconds charged per page read/written; consumed by the
        execution engine's clock when it asks :meth:`io_time_since`.
    encoded:
        Default encoding mode for files created here: dictionary-encoded
        string columns and run-length arrival stamps (charged their encoded
        footprint).  Disabled via ``EngineConfig(encoded_columns=False)``.
    """

    def __init__(
        self,
        page_read_ms: float = 0.12,
        page_write_ms: float = 0.15,
        encoded: bool = True,
    ) -> None:
        self.page_read_ms = page_read_ms
        self.page_write_ms = page_write_ms
        self.encoded = encoded
        self.stats = DiskStats()
        self._files: dict[str, OverflowFile] = {}
        self._sequence = 0
        self._pending_read_bytes = 0
        self._pending_write_bytes = 0

    def create_file(self, prefix: str = "overflow", schema: Schema | None = None) -> OverflowFile:
        """Create a new, uniquely named overflow file.

        ``schema`` fixes the file's columnar layout and byte accounting up
        front; when omitted it is adopted from the first row written.
        """
        self._sequence += 1
        name = f"{prefix}-{self._sequence}"
        handle = OverflowFile(self, name, schema=schema)
        self._files[name] = handle
        return handle

    def file(self, name: str) -> OverflowFile:
        """Look up a previously created file."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no overflow file named {name!r}") from None

    @property
    def files(self) -> dict[str, OverflowFile]:
        return dict(self._files)

    # -- accounting -------------------------------------------------------------

    def _record_write(self, nbytes: int) -> None:
        self.stats.tuples_written += 1
        self.stats.bytes_written += nbytes
        self._pending_write_bytes += nbytes
        while self._pending_write_bytes >= PAGE_SIZE_BYTES:
            self._pending_write_bytes -= PAGE_SIZE_BYTES
            self.stats.pages_written += 1

    def _record_write_block(self, nbytes: int, tuples: int) -> None:
        """One accounting call for a whole chunk (block-level, not per-tuple)."""
        self.stats.tuples_written += tuples
        self.stats.bytes_written += nbytes
        self.stats.chunks_written += 1
        self._pending_write_bytes += nbytes
        pages, self._pending_write_bytes = divmod(
            self._pending_write_bytes, PAGE_SIZE_BYTES
        )
        self.stats.pages_written += pages

    def _record_read(self, nbytes: int) -> None:
        self.stats.tuples_read += 1
        self.stats.bytes_read += nbytes
        self._pending_read_bytes += nbytes
        while self._pending_read_bytes >= PAGE_SIZE_BYTES:
            self._pending_read_bytes -= PAGE_SIZE_BYTES
            self.stats.pages_read += 1

    def _record_read_block(self, nbytes: int, tuples: int) -> None:
        """One accounting call for a whole chunk (block-level, not per-tuple)."""
        self.stats.tuples_read += tuples
        self.stats.bytes_read += nbytes
        self.stats.chunks_read += 1
        self._pending_read_bytes += nbytes
        pages, self._pending_read_bytes = divmod(
            self._pending_read_bytes, PAGE_SIZE_BYTES
        )
        self.stats.pages_read += pages

    def io_time_ms(self, since: DiskStats | None = None) -> float:
        """Virtual milliseconds of I/O performed since ``since`` (or ever)."""
        base_r = since.pages_read if since else 0
        base_w = since.pages_written if since else 0
        return (
            (self.stats.pages_read - base_r) * self.page_read_ms
            + (self.stats.pages_written - base_w) * self.page_write_ms
        )
