"""Simulated disk for overflow files (columnar, optionally encoded, spill format).

The paper's overflow-resolution analysis (Section 4.2.3) counts tuple I/Os:
tuples written to bucket overflow files and read back for the recursive
hybrid-hash pass.  :class:`SimulatedDisk` provides exactly that accounting —
operators write and read :class:`OverflowFile` objects and the disk tracks
tuple and page counts plus the virtual time spent, so benchmarks can report
I/O costs alongside latencies.

Spill files store *columnar chunks*: one column per attribute, a parallel
arrival-stamp column, the marked/unmarked bit of the double pipelined join's
duplicate-avoidance discipline as one more column, and a run-length *tag*
column naming the group each row belongs to.  A hash table spills all of its
buckets into **one** such file — its append-only spill log — and keeps, per
bucket, only a :class:`SpillLedger`: the rows, bytes and last arrival stamp
the paper's per-bucket overflow file would hold.  A write costs what it
changes: all the rows a run segment spills, whatever number of buckets they
scatter over, are one gather per column and one block-level charge, the
per-group byte arithmetic being offsets into that one chunk.  A reader merges
the log once (:meth:`OverflowFile.read_log`; tag runs give every group's
positions) and is charged, per group, what the group was charged on write.
The per-row ``write``/``read`` API remains for tuple-at-a-time callers (the
row-spill baseline of the spill benchmark) and boxes rows only there.

Byte accounting is *representation-faithful* and *per group*: every byte and
page is what one file per bucket would charge.  A dictionary-encoded string
column spills as 8-byte codes plus each referenced dictionary entry once per
group (actual value bytes plus a slot pointer — a bucket's file has to carry
the dictionary to be readable); a run-length arrival column charges one stamp
per run, runs continuing across writes through the ledger's last stamp, so
per-row and chunk writes of the same tuple sequence charge identical bytes;
plain columns charge the estimated columnar value size.  The page-count model
divides the same byte totals by :data:`PAGE_SIZE_BYTES`, so compressed spill
directly reduces the virtual I/O time the clock observes.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from operator import ne
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.columns import (
    DICT_CODE_BYTES,
    DICT_SLOT_BYTES,
    _DEGRADE_ERRORS,
    DictColumn,
    RunLengthArrivals,
    append_value,
    as_values,
    compress_arrivals,
    empty_columns,
    extend_moving,
    gather as gather_column,
    make_dictionaries,
    picker,
)
from repro.storage.schema import ARRIVAL_STAMP_BYTES, Schema
from repro.storage.tuples import Row

#: Bytes per simulated disk page.  TPC-D era systems used 4-8 KB pages.
PAGE_SIZE_BYTES = 8192

#: Bytes charged per row for the marked-bit column carried by spill files.
MARK_BIT_BYTES = 1


@dataclass
class DiskStats:
    """A :class:`SimulatedDisk`'s counters, plus the bytes written and read
    past the last whole page.  Overflow files record their I/O here and never
    hold the disk itself, so ``disk -> files`` is the only strong direction
    and a finished query's spill state is freed by reference counting alone."""

    tuples_written: int = 0
    tuples_read: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    pages_written: int = 0
    pages_read: int = 0
    chunks_written: int = 0
    chunks_read: int = 0
    pending_write_bytes: int = 0
    pending_read_bytes: int = 0

    @property
    def total_tuple_ios(self) -> int:
        """Total tuple I/O operations (reads + writes), the paper's cost metric."""
        return self.tuples_written + self.tuples_read

    @property
    def total_pages(self) -> int:
        return self.pages_written + self.pages_read

    def snapshot(self) -> "DiskStats":
        """Copy of the current counters."""
        return replace(self)

    def record_write(self, nbytes: int, tuples: int, chunks: int = 1) -> None:
        """One accounting call for a whole chunk (block-level, not per-tuple);
        a per-row write extends the open chunk (``chunks=0``)."""
        self.tuples_written += tuples
        self.bytes_written += nbytes
        self.chunks_written += chunks
        pages, self.pending_write_bytes = divmod(
            self.pending_write_bytes + nbytes, PAGE_SIZE_BYTES
        )
        self.pages_written += pages

    def record_read(self, nbytes: int, tuples: int) -> None:
        """One accounting call for a whole chunk read back."""
        self.tuples_read += tuples
        self.bytes_read += nbytes
        self.chunks_read += 1
        pages, self.pending_read_bytes = divmod(
            self.pending_read_bytes + nbytes, PAGE_SIZE_BYTES
        )
        self.pages_read += pages


class SpillLedger:
    """What overflow resolution keeps per group of spilled rows (a bucket):
    its tag in the log, its row count, the bytes it was charged — which is
    what reading it back costs — and the last arrival stamp written, so
    run-length stamp charges continue across writes.  The zeros are class
    level: a ledger costs nothing until its group first spills."""

    index: int | None = None
    spilled_count = 0
    spilled_bytes = 0
    last_arrival: float | None = None


class SpillChunk:
    """One columnar block of a spill file.

    ``columns`` holds the attribute columns (possibly dict-encoded),
    ``arrivals`` the parallel arrival stamps (possibly run-length encoded),
    ``marked`` the marked-bit column (one bool per row) and ``tags`` the
    group tags as ``[tag, count]`` runs; ``groups`` maps each tag to its row
    positions once :meth:`OverflowFile.read_log` has merged the file into
    this chunk.  ``byte_size`` is the encoded footprint the chunk was charged
    on write; reads charge the same.
    """

    __slots__ = ("columns", "arrivals", "marked", "byte_size", "tags", "groups")

    def __init__(
        self, columns: list, arrivals, marked: list[bool], byte_size: int = 0, tags=None
    ) -> None:
        self.columns = columns
        self.arrivals = arrivals
        self.marked = marked
        self.byte_size = byte_size
        self.tags = tags
        self.groups: dict[int | None, list[int]] | None = None

    def __len__(self) -> int:
        return len(self.arrivals)


class OverflowFile(SpillLedger):
    """A spill file: rows flushed from hash buckets, as tagged columnar chunks.

    Rows may carry a *marked* flag, used by the double pipelined join's
    overflow algorithms to remember which tuples arrived after their bucket
    was flushed (the paper's duplicate-avoidance marking).  Contents live as
    :class:`SpillChunk` columnar blocks; per-row writes accumulate into an
    open tail chunk, bulk writes seal one chunk per call.  A write names the
    :class:`SpillLedger` of each group of rows it carries (``ledger`` /
    ``groups``), or none: the file is its own ledger, all a one-group file needs.

    With ``encoded`` true (inherited from the disk by default), the tail
    chunk's string columns dictionary-encode into file-owned dictionaries
    and its arrival column run-length encodes; chunks moved wholesale by
    ``write_columns`` keep whatever encoding their producer used.  See the
    module docstring for the byte-charging model.
    """

    def __init__(
        self, stats: DiskStats, name: str, schema: Schema | None = None, encoded: bool = True
    ) -> None:
        self._stats = stats
        self.name = name
        self.schema = schema
        self.encoded = encoded
        self._chunks: list[SpillChunk] = []
        self._tail: SpillChunk | None = None
        self._count = 0
        self.closed = False
        # Encoded-spill bookkeeping: fallback file-owned dictionaries for
        # tail chunks whose writers carry no dictionary of their own, and the
        # ``(group tag, value)`` entries already charged (a group stores each
        # distinct string once, whichever dictionary or drive mode wrote it).
        self._dictionaries: list | None = None
        self._charged_values: set[tuple[int | None, str]] = set()

    # -- sizing ------------------------------------------------------------------

    def _row_bytes(self) -> int:
        """Plain columnar byte estimate per spilled row (incl. marked bit)."""
        assert self.schema is not None
        return self.schema.columnar_row_size + MARK_BIT_BYTES

    def __len__(self) -> int:
        return self._count

    def _charge_block(self, columns: list, arrivals, groups: Sequence) -> int:
        """Charge one chunk to its groups' ledgers; returns the total bytes.

        ``groups`` is ``[(ledger, row count), ...]`` in chunk order, each
        ledger at most once.  A group pays what a file of its own would for
        its slice: the fixed bytes per row, one stamp per arrival run (from
        the ledger's last stamp on), and each dictionary entry it references
        for the first time.
        """
        if not self.encoded:
            row_bytes = self._row_bytes()
            for ledger, count in groups:
                ledger.spilled_count += count
                ledger.spilled_bytes += row_bytes * count
            return row_bytes * len(arrivals)
        fixed = MARK_BIT_BYTES
        entries: dict[int | None, int] = {}
        seen = self._charged_values
        for attribute, column in zip(self.schema, columns):
            if type(column) is not DictColumn:
                fixed += attribute.column_size
                continue
            fixed += DICT_CODE_BYTES
            tags = chain.from_iterable(repeat(ledger.index, count) for ledger, count in groups)
            # ``a - b`` walks the small set; ``a -= b`` would walk all of ``seen``.
            fresh = set(zip(tags, map(column.dictionary.values.__getitem__, column.codes))) - seen
            seen |= fresh
            for tag, value in fresh:
                entries[tag] = entries.get(tag, 0) + len(value) + DICT_SLOT_BYTES
        stamps = as_values(arrivals)
        # steps[i]: how many of the first i stamps differ from their successor.
        steps = list(accumulate(map(ne, stamps, islice(stamps, 1, None)), initial=0))
        total = start = 0
        for ledger, count in groups:
            stop = start + count
            runs = 1 + steps[stop - 1] - steps[start]
            if stamps[start] == ledger.last_arrival:
                runs -= 1
            ledger.last_arrival = stamps[stop - 1]
            nbytes = fixed * count + ARRIVAL_STAMP_BYTES * runs + entries.get(ledger.index, 0)
            ledger.spilled_count += count
            ledger.spilled_bytes += nbytes
            total += nbytes
            start = stop
        return total

    # -- writing ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"overflow file {self.name!r} is closed")

    def _tail_chunk(self, source_columns: Sequence | None = None) -> SpillChunk:
        """The open tail chunk, creating one when absent.

        In encoded mode a new tail's dict-encoded slots *adopt* the writer's
        dictionaries when ``source_columns`` carries dict columns (so
        positional spills re-encode with one lookup and create no per-file
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
            self._tail = SpillChunk(columns, arrivals, [], 0, [])
            self._chunks.append(self._tail)
        return self._tail

    def _append_row(
        self,
        values: Sequence[Any],
        arrival: float,
        marked: bool,
        ledger: SpillLedger,
        source_columns: Sequence | None = None,
    ) -> None:
        """The per-row write: append to the tail chunk and charge ``ledger``."""
        chunk = self._tail_chunk(source_columns)
        columns = chunk.columns
        tag = ledger.index
        if self.encoded:
            nbytes = MARK_BIT_BYTES
            if arrival != ledger.last_arrival:
                nbytes += ARRIVAL_STAMP_BYTES
            ledger.last_arrival = arrival
            attributes = self.schema.attributes
            seen = self._charged_values
            for position, value in enumerate(values):
                column = columns[position]
                if type(column) is DictColumn:
                    try:
                        code = column.dictionary.encode(value)
                    except _DEGRADE_ERRORS:
                        # Misfit: the column degrades to an object list (the
                        # standard repair) and charges the plain estimate; the
                        # chunk is sealed so later rows are coded again.
                        nbytes += attributes[position].column_size
                        append_value(columns, position, value)
                        self._tail = None
                        continue
                    nbytes += DICT_CODE_BYTES
                    if (tag, value) not in seen:
                        seen.add((tag, value))
                        nbytes += len(value) + DICT_SLOT_BYTES
                    column.codes.append(code)
                else:
                    nbytes += attributes[position].column_size
                    append_value(columns, position, value)
        else:
            nbytes = self._row_bytes()
            for position, value in enumerate(values):
                append_value(columns, position, value)
        chunk.arrivals.append(arrival)
        chunk.marked.append(marked)
        tags = chunk.tags
        if tags and tags[-1][0] == tag:
            tags[-1][1] += 1
        else:
            tags.append([tag, 1])
        chunk.byte_size += nbytes
        self._count += 1
        ledger.spilled_count += 1
        ledger.spilled_bytes += nbytes
        self._stats.record_write(nbytes, 1, 0)

    def write(self, row: Row, marked: bool = False, ledger: SpillLedger | None = None) -> None:
        """Append one row to the file, accounting for the write I/O."""
        self._check_open()
        if self.schema is None:
            self.schema = row.schema
        self._append_row(row.values, row.arrival, marked, self if ledger is None else ledger)

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
        ledger: SpillLedger | None = None,
    ) -> None:
        """Append one row by position from batch/run columns — no row boxing.

        A new tail chunk adopts the source's dictionaries, so string values
        re-encode with one lookup each and construct nothing.
        """
        self._check_open()
        values = [source[index] for source in source_columns]
        ledger = self if ledger is None else ledger
        self._append_row(values, arrival, marked, ledger, source_columns)

    def write_columns(
        self,
        columns: list,
        arrivals,
        marked: "bool | list[bool]" = False,
        groups: Sequence[tuple[SpillLedger, int]] | None = None,
    ) -> None:
        """Append a whole column set as one sealed chunk (one block charge).

        Ownership of ``columns``/``arrivals`` transfers to the file — this is
        how a bucket flush hands the rows it gathered out of its table's
        arena to disk without a second copy.  The chunk keeps its producer's
        encoding (dict-code columns stay codes; the arrival column is
        run-length compressed when that pays off).  ``groups`` names the
        ledgers of consecutive row ranges (see :meth:`_charge_block`).
        """
        self._check_open()
        count = len(arrivals)
        if count == 0:
            return
        if groups is None:
            groups = ((self, count),)
        marks = marked if isinstance(marked, list) else [marked] * count
        self._tail = None
        nbytes = self._charge_block(columns, arrivals, groups)
        if self.encoded:
            arrivals = compress_arrivals(arrivals)
        tags = [[ledger.index, size] for ledger, size in groups]
        self._chunks.append(SpillChunk(columns, arrivals, marks, nbytes, tags))
        self._count += count
        self._stats.record_write(nbytes, count)

    def write_gather(
        self,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        indices: Sequence[int],
        marked: bool = False,
        groups: Sequence[tuple[SpillLedger, int]] | None = None,
    ) -> None:
        """Append the rows of ``source_columns`` at ``indices`` as one chunk —
        one shared gather per column, however many ``groups`` they belong to.

        Gathers preserve the source storage class, so dict-encoded columns
        spill as code gathers (sharing the source dictionary) and the chunk
        is charged the encoded footprint.  In an
        encoded file, plain string columns (a transposed row-backed batch
        carries them) encode through the file-owned dictionaries first,
        exactly as the per-row writers do, so the same tuples charge the same
        bytes whichever way they are written; a misfit value sends the rows
        down the per-row path.
        """
        if not indices:
            return
        pick = picker(indices)
        columns = [gather_column(column, indices, pick) for column in source_columns]
        if self.encoded and self.schema is not None:
            if self._dictionaries is None:
                self._dictionaries = make_dictionaries(self.schema)
            for position, dictionary in enumerate(self._dictionaries):
                if dictionary is not None and type(columns[position]) is list:
                    encoded_column = DictColumn(dictionary)
                    try:
                        encoded_column.extend(columns[position])
                    except _DEGRADE_ERRORS:
                        rows = iter(indices)
                        for ledger, size in groups or ((self, len(indices)),):
                            for index in islice(rows, size):
                                self.write_position(
                                    source_columns, index, source_arrivals[index], marked, ledger
                                )
                        return
                    columns[position] = encoded_column
        if type(source_arrivals) is RunLengthArrivals:
            arrivals = source_arrivals.gather(indices)
        else:
            arrivals = list(pick(source_arrivals))
        self.write_columns(columns, arrivals, marked, groups)

    # -- reading -------------------------------------------------------------------

    def read_log(self) -> SpillChunk | None:
        """The whole file as one chunk, free of charge; ``None`` when empty.

        The chunks are merged in place (codes *move*: a column whose chunks
        disagree on the dictionary degrades to a plain list) and ``groups``
        maps each tag to its rows' positions in write order.  The reader
        pays per group, through :meth:`charge_read`.
        """
        chunks = self._chunks
        if not chunks:
            return None
        self._tail = None
        log = chunks[0]
        if len(chunks) > 1 or log.groups is None:
            columns = log.columns
            arrivals = log.arrivals
            if type(arrivals) is not list:
                arrivals = log.arrivals = list(arrivals)
            for chunk in chunks[1:]:
                for position, column in enumerate(chunk.columns):
                    extend_moving(columns, position, column)
                arrivals.extend(chunk.arrivals)
                log.marked.extend(chunk.marked)
                log.tags.extend(chunk.tags)
                log.byte_size += chunk.byte_size
            del chunks[1:]
            groups: dict = {}
            start = 0
            for tag, count in log.tags:
                groups.setdefault(tag, []).extend(range(start, start + count))
                start += count
            log.groups = groups
        return log

    def charge_read(self, ledger: SpillLedger) -> None:
        """Charge reading ``ledger``'s rows back: one block of the bytes they
        were charged on write."""
        if ledger.spilled_count:
            self._stats.record_read(ledger.spilled_bytes, ledger.spilled_count)

    def read_chunks(self, ledger: SpillLedger | None = None) -> Iterator[SpillChunk]:
        """Yield the file's chunks, charging read I/O at block granularity.

        Each chunk charges exactly the bytes it was charged on write, so an
        encoded spill is as cheap to re-read as it was to write.  With
        ``ledger``, that group's rows alone: one chunk gathered out of the
        merged log, charged the ledger's bytes.
        """
        if ledger is None:
            for chunk in self._chunks:
                count = len(chunk)
                if count:
                    self._stats.record_read(chunk.byte_size, count)
                yield chunk
        elif ledger.spilled_count:
            log = self.read_log()
            at = log.groups[ledger.index]
            pick = picker(at)
            self.charge_read(ledger)
            yield SpillChunk(
                [gather_column(column, at, pick) for column in log.columns],
                list(pick(log.arrivals)),
                list(pick(log.marked)),
                ledger.spilled_bytes,
            )

    def _boxed(self, chunks) -> Iterator[tuple[Row, bool]]:
        schema = self.schema
        make = Row.make  # repro: allow[hot-path-row] the row-at-a-time views re-box by design
        for chunk in chunks:
            columns = chunk.columns
            for i, (arrival, marked) in enumerate(zip(chunk.arrivals, chunk.marked)):
                yield make(schema, tuple(column[i] for column in columns), arrival), marked

    def read(self, ledger: SpillLedger | None = None) -> Iterator[tuple[Row, bool]]:
        """Yield ``(row, marked)`` pairs, accounting for the read I/O.

        This is the row-at-a-time view: each spilled tuple is boxed back into
        a :class:`Row` — the re-boxing cost the columnar readers avoid.
        Values of dict-encoded columns decode to the dictionary's canonical
        string objects (no per-row string construction).
        """
        return self._boxed(self.read_chunks(ledger))

    def peek(self) -> list[tuple[Row, bool]]:
        """Contents without charging I/O (for tests and debugging)."""
        return list(self._boxed(self._chunks))

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

    def create_file(self, prefix: str = "overflow", schema: Schema | None = None) -> OverflowFile:
        """Create a new, uniquely named overflow file.

        ``schema`` fixes the file's columnar layout and byte accounting up
        front; when omitted it is adopted from the first row written.
        """
        self._sequence += 1
        name = f"{prefix}-{self._sequence}"
        handle = OverflowFile(self.stats, name, schema, self.encoded)
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

    def io_time_ms(self, since: DiskStats | None = None) -> float:
        """Virtual milliseconds of I/O performed since ``since`` (or ever)."""
        base_r = since.pages_read if since else 0
        base_w = since.pages_written if since else 0
        return (
            (self.stats.pages_read - base_r) * self.page_read_ms
            + (self.stats.pages_written - base_w) * self.page_write_ms
        )
