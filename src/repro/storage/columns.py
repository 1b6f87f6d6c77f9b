"""Encoded column storage: the struct-of-arrays substrate.

A column is a plain list holding *the objects it was given* — the source
relation's own ``int`` / ``float`` / ``str`` objects — so every slice, gather,
extend, arena insert, probe and spill move is a pointer copy: nothing is
boxed on the way out or unboxed on the way in.  ``str`` attributes are
stored as :class:`DictColumn` — a plain list of codes (the :class:`Dictionary`'s
own code objects, so a cell allocates nothing) plus a
shared, append-only dictionary — and a dict column fed a value it cannot
code (``None``, a non-string, a frozen or full dictionary) degrades to a
plain list.  The helpers here keep that pair of representations invisible to
the rest of the engine: appends and bulk extends degrade a dict-encoded
column the first time a value does not fit, and gathers and slices preserve
the storage class.  Byte accounting (:attr:`Schema.encoded_row_size`) is
the *modelled* engine's, which packs numbers and codes into 8 bytes: it
follows the attribute type, never the Python container.  (Deliberately not packed ``array`` buffers: one boxes
every cell read from it and unboxes every cell written to it — 48 ns against
15 ns per gathered cell, and the stdlib has no unboxed gather — while saving
no memory, the source relation holding the objects anyway.)

Dictionary encoding gives three wins on string-heavy workloads:

* resident rows charge 8 bytes per string value (the code) plus each
  distinct value once, so hash tables overflow later;
* spill chunks move codes instead of string objects, so overflow files are
  smaller and their page-count I/O cost lower;
* every occurrence of a value decodes to the *same* canonical string
  object, so downstream key hashing hits the cached-hash/pointer-equality
  fast path — the practical equivalent of comparing codes — and extending a
  dict column with another that shares its dictionary moves raw codes with
  no per-value work at all.

:class:`RunLengthArrivals` is the arrival-stamp twin: scans stamp whole
blocks with one arrival, so the parallel arrival list collapses to
``(value, run_length)`` pairs; it degrades internally to a plain list when
the stream does not compress (network stamps are strictly increasing), so
random access never pays more than one indirection.

:class:`ColumnarPartition` is the shared append-only "columnar bag of rows"
— the one column arena of a hash table and the nested-loops inner: one column
per attribute, a parallel arrival column and one key index
(``key -> position`` while keys are unique, ``key -> [positions]`` after),
with the one insert pass and the one probe pass all three joins run, so they
insert with one ``extend`` per column and assemble output with one C-level
gather per column without ever materializing
:class:`~repro.storage.tuples.Row` objects.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, islice, repeat
from operator import is_not, itemgetter, ne, sub
from typing import Any, Iterator, Sequence

from repro.storage.schema import Schema
from repro.storage.tuples import Key

#: Attribute types that dictionary-encode.
DICT_ENCODED_TYPES = {"str"}

#: Bytes one dictionary code is charged (the modelled engine packs it).
DICT_CODE_BYTES = 8

#: Pointer overhead charged per dictionary entry (the value-list slot).
DICT_SLOT_BYTES = 8

#: A dictionary refusing to grow past this many distinct entries degrades
#: the column to an object list (the high-cardinality misfit path).
DICT_MAX_ENTRIES = 1 << 20

#: Exceptions that signal "this value does not fit the dictionary column".
_DEGRADE_ERRORS = (TypeError, ValueError)


class Dictionary:
    """An append-only value dictionary shared by :class:`DictColumn` columns.

    Codes are assigned densely in first-seen order and never change, so any
    number of columns (and any number of spill chunks referencing their
    columns) can share one dictionary.  ``bytes_used`` accumulates the
    estimated footprint of the entries (actual string length plus the
    value-list slot), which is what hash tables charge their budgets for
    dictionary growth.
    """

    __slots__ = ("values", "codes", "bytes_used", "on_grow", "frozen")

    def __init__(self) -> None:
        self.values: list[str] = []
        self.codes: dict[str, int] = {}
        self.bytes_used = 0
        #: Optional growth hook: called with the byte footprint of every new
        #: entry.  Hash tables attach their budget charge here, so steady
        #: state (all values already coded) pays nothing for accounting.
        self.on_grow = None
        #: A frozen dictionary admits no new entries: encoding an unknown
        #: value raises the degrade signal instead.  Long-lived shared
        #: dictionaries (a source's translation cache) freeze so that
        #: downstream consumers mixing in foreign values degrade their own
        #: column rather than permanently polluting the shared cache.
        self.frozen = False

    def __len__(self) -> int:
        return len(self.values)

    def freeze(self) -> "Dictionary":
        self.frozen = True
        return self

    def encode(self, value: str) -> int:
        """Code for ``value``, adding a new entry when first seen.

        Raises
        ------
        TypeError
            If ``value`` is not a string (the misfit degrade signal).
        ValueError
            If the dictionary is frozen or adding the entry would exceed
            :data:`DICT_MAX_ENTRIES` (the degrade signals).
        """
        code = self.codes.get(value)
        if code is not None:
            return code
        if type(value) is not str:
            raise TypeError(f"dictionary columns hold str values, got {type(value).__name__}")
        if self.frozen:
            raise ValueError("dictionary is frozen; degrading column")
        if len(self.values) >= DICT_MAX_ENTRIES:
            raise ValueError("dictionary exceeded DICT_MAX_ENTRIES; degrading column")
        code = len(self.values)
        self.values.append(value)
        self.codes[value] = code
        nbytes = len(value) + DICT_SLOT_BYTES
        self.bytes_used += nbytes
        if self.on_grow is not None:
            self.on_grow(nbytes)
        return code

    def entry_bytes(self, code: int) -> int:
        """Estimated footprint of one entry (used by spill accounting)."""
        return len(self.values[code]) + DICT_SLOT_BYTES


class DictColumn:
    """A string column stored as a list of codes plus a :class:`Dictionary`.

    The codes are the dictionary's own code objects (the values of
    :attr:`Dictionary.codes`), so no cell allocates.  Sequence-compatible
    with the plain-list column it replaces: indexing and iteration decode to
    the dictionary's canonical string objects (no string is ever constructed
    per row), slicing and gathering return new :class:`DictColumn` views
    sharing the same dictionary, and ``append`` / ``extend`` encode incoming
    values — raising the standard degrade errors on misfits so
    :func:`append_value` / :func:`extend_column` repair the column to a plain
    list.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, dictionary: Dictionary | None = None, codes: list | None = None) -> None:
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.codes: list[int] = codes if codes is not None else []

    # -- sizing / access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DictColumn(self.dictionary, self.codes[index])
        return self.dictionary.values[self.codes[index]]

    def __delitem__(self, index) -> None:
        del self.codes[index]

    def __iter__(self) -> Iterator[str]:
        return map(self.dictionary.values.__getitem__, self.codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, DictColumn):
            if other.dictionary is self.dictionary:
                return other.codes == self.codes
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.codes) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictColumn({len(self.codes)} codes, {len(self.dictionary)} entries)"

    # -- mutation ---------------------------------------------------------------

    def append(self, value: str) -> None:
        # Inlined common case (value already coded) to keep the per-row
        # insert path at one dict probe; encode() handles new entries.
        dictionary = self.dictionary
        code = dictionary.codes.get(value)
        if code is None:
            code = dictionary.encode(value)
        self.codes.append(code)

    def extend(self, values) -> None:
        """Extend with ``values``; same-dictionary extends move raw codes.

        A :class:`DictColumn` sharing this column's dictionary extends as a
        single ``list.extend`` of codes (the code-vs-code fast path);
        anything else (a foreign :class:`DictColumn` decodes first) is
        encoded in bulk, raising the degrade errors on a misfit before any
        code is appended.
        """
        if isinstance(values, DictColumn) and values.dictionary is self.dictionary:
            self.codes.extend(values.codes)
            return
        # Bulk encode: one C-level map over the codes table resolves every
        # already-seen value; only genuinely new (or misfit) values take the
        # per-value Python path.  TypeError from an unhashable value
        # propagates as the standard degrade signal.
        if not isinstance(values, (list, tuple)):
            values = list(values)
        codes = list(map(self.dictionary.codes.get, values))
        if None in codes:
            encode = self.dictionary.encode
            for i, code in enumerate(codes):
                if code is None:
                    codes[i] = encode(values[i])
        self.codes.extend(codes)

    def gather(self, indices: Sequence[int]) -> "DictColumn":
        """Codes at ``indices`` as a new column sharing the dictionary."""
        return gather(self, indices)


class RunLengthArrivals:
    """Arrival stamps stored as ``(value, run_length)`` pairs.

    Scans stamp whole blocks with one arrival, so batches built from local
    blocks carry a single run instead of one float per row.  The container
    is sequence-compatible (indexing via bisect over cumulative run ends,
    iteration run by run) and *self-degrading*: when appends stop merging —
    network arrival stamps are strictly increasing — it switches to an
    internal plain list so random access costs one indirection, never a
    bisect over per-row runs.
    """

    __slots__ = ("_values", "_ends", "_plain")

    #: Once this many runs accumulate without compressing (runs > rows/2),
    #: the container degrades to its internal plain-list form.
    _DEGRADE_CHECK = 64

    def __init__(self, values: Sequence[float] = ()) -> None:
        self._values: list[float] = []
        self._ends: list[int] = []
        self._plain: list[float] | None = None
        if values:
            self.extend(values)

    @classmethod
    def constant(cls, value: float, count: int) -> "RunLengthArrivals":
        """A single run: ``count`` rows all stamped ``value``."""
        out = cls()
        if count:
            out._values.append(value)
            out._ends.append(count)
        return out

    # -- sizing / access ---------------------------------------------------------

    def __len__(self) -> int:
        if self._plain is not None:
            return len(self._plain)
        return self._ends[-1] if self._ends else 0

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def run_count(self) -> int:
        """Number of stored runs (``len`` when degraded to the plain form)."""
        if self._plain is not None:
            return len(self._plain)
        return len(self._values)

    def __getitem__(self, index):
        if self._plain is not None:
            if isinstance(index, slice):
                return RunLengthArrivals(self._plain[index])
            return self._plain[index]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return RunLengthArrivals([self[i] for i in range(start, stop, step)])
            out = RunLengthArrivals()
            position = 0
            for value, end in zip(self._values, self._ends):
                lo = max(start, position)
                hi = min(stop, end)
                if hi > lo:
                    out._push_run(value, hi - lo)
                position = end
                if position >= stop:
                    break
            return out
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("arrival index out of range")
        return self._values[bisect_right(self._ends, index)]

    def __iter__(self) -> Iterator[float]:
        if self._plain is not None:
            return iter(self._plain)
        # One C-level ``repeat`` per run: no bytecode per stamp.
        ends = self._ends
        return chain.from_iterable(map(repeat, self._values, map(sub, ends, chain((0,), ends))))

    def __eq__(self, other) -> bool:
        if isinstance(other, RunLengthArrivals):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        form = "plain" if self._plain is not None else f"{self.run_count} runs"
        return f"RunLengthArrivals({len(self)} stamps, {form})"

    def to_list(self) -> list[float]:
        values = self._values
        if self._plain is None and len(values) == 1:
            return [values[0]] * self._ends[0]
        return list(self)

    # -- mutation -----------------------------------------------------------------

    def _push_run(self, value: float, count: int) -> None:
        if self._values and self._values[-1] == value:
            self._ends[-1] += count
        else:
            self._values.append(value)
            self._ends.append((self._ends[-1] if self._ends else 0) + count)

    def _maybe_degrade(self) -> None:
        runs = len(self._values)
        if runs >= self._DEGRADE_CHECK and runs * 2 > self._ends[-1]:
            self._plain = list(self)
            self._values = []
            self._ends = []

    def append(self, value: float) -> None:
        if self._plain is not None:
            self._plain.append(value)
            return
        self._push_run(value, 1)
        self._maybe_degrade()

    def extend(self, values) -> None:
        if self._plain is not None:
            self._plain.extend(values)
            return
        if isinstance(values, RunLengthArrivals) and values._plain is None:
            previous = 0
            for value, end in zip(values._values, values._ends):
                self._push_run(value, end - previous)
                previous = end
        else:
            for value in values:
                self._push_run(value, 1)
        if self._values:
            self._maybe_degrade()

    def gather(self, indices: Sequence[int]) -> "RunLengthArrivals":
        """Stamps at ``indices`` (run-compressed again on the way out)."""
        out = RunLengthArrivals()
        out.extend(self[i] for i in indices)
        return out


def arrival_run_count(arrivals: Sequence[float]) -> int:
    """Number of equal-value runs in ``arrivals`` (the RLE spill unit)."""
    if isinstance(arrivals, RunLengthArrivals):
        if arrivals._plain is None:
            return arrivals.run_count
        arrivals = arrivals._plain
    n = len(arrivals)
    if not n:
        return 0
    # One C-level pass: a run starts wherever a stamp differs from its
    # predecessor.
    return 1 + sum(map(ne, arrivals, islice(arrivals, 1, None)))


def compress_arrivals(arrivals) -> "RunLengthArrivals | list[float]":
    """RLE form of ``arrivals`` when it compresses, the original otherwise."""
    if isinstance(arrivals, RunLengthArrivals):
        return arrivals
    n = len(arrivals)
    if n and arrival_run_count(arrivals) * 2 <= n:
        return RunLengthArrivals(arrivals)
    return arrivals


def adoptable_dictionary(column) -> Dictionary | None:
    """The dictionary a store may adopt from ``column``, or ``None``.

    Only a frozen dictionary is adoptable: nobody grows it, so a store that
    shares it moves raw codes and charges nobody else's budget.  An unfrozen
    one belongs to whoever grows it (a hash table's own charges the table),
    so a store fed its codes owns a dictionary instead.
    """
    if type(column) is DictColumn and column.dictionary.frozen:
        return column.dictionary
    return None


def make_dictionaries(schema: Schema) -> list:
    """One fresh :class:`Dictionary` per dict-encodable attribute (else None)."""
    return [
        Dictionary() if attribute.type_name in DICT_ENCODED_TYPES else None
        for attribute in schema
    ]


def empty_column(type_name: str, dictionary: Dictionary | None = None):
    """A fresh, empty column for one attribute type: a :class:`DictColumn`
    (over ``dictionary`` when given) for a dict-encodable attribute, else a
    plain list."""
    if type_name in DICT_ENCODED_TYPES:
        return DictColumn(dictionary)
    return []


def empty_columns(schema: Schema, dictionaries: Sequence | None = None) -> list:
    """One fresh empty column per attribute of ``schema``."""
    if dictionaries is None:
        return [empty_column(a.type_name) for a in schema]
    return [
        empty_column(a.type_name, dictionary) for a, dictionary in zip(schema, dictionaries)
    ]


def empty_like(column) -> "list | DictColumn":
    """A fresh, empty column with the same storage class as ``column``.

    A dict-encoded column's twin shares its dictionary, so values moved
    between the two stay code-compatible (the encoding-stable concat path).
    """
    if type(column) is DictColumn:
        return DictColumn(column.dictionary)
    return []


def build_column(type_name: str, values: Sequence[Any], dictionary: Dictionary | None = None):
    """A column over ``values`` (the values themselves, never copies); a
    dict-encodable attribute falls back to a plain list on an unfit value."""
    if type_name in DICT_ENCODED_TYPES:
        column = DictColumn(dictionary)
        try:
            column.extend(values)
        except _DEGRADE_ERRORS:
            return list(values)
        return column
    return list(values)


def build_columns(
    schema: Schema,
    columns: Sequence[Sequence[Any]],
    dictionaries: Sequence | None = None,
) -> list:
    """Columns over ``columns`` as dictated by ``schema``."""
    if dictionaries is None:
        return [
            build_column(attribute.type_name, column)
            for attribute, column in zip(schema, columns)
        ]
    return [
        build_column(attribute.type_name, column, dictionary)
        for attribute, column, dictionary in zip(schema, columns, dictionaries)
    ]


def picker(indices: Sequence[int]):
    """One reusable C-level gather: ``picker(indices)(seq)`` is ``seq`` at ``indices``.

    An ``itemgetter`` over the indices (its result is a tuple), or over one
    slice for a unit-step range, a single index or none (its result is then
    a slice of ``seq``); build it once and apply it to every column.
    """
    n = len(indices)
    if n > 1 and not (type(indices) is range and indices.step == 1):
        return itemgetter(*indices)
    start = indices[0] if n else 0
    return itemgetter(slice(start, start + n))


def as_run(indices: Sequence[int]) -> Sequence[int]:
    """``indices`` as a ``range`` when they are one ascending contiguous run
    (:func:`picker` then slices), else as given."""
    n = len(indices)
    if n > 1 and type(indices) is not range:
        first = indices[0]
        if indices[-1] - first == n - 1 and indices == list(range(first, first + n)):
            return range(first, first + n)
    return indices


def gather(column, indices: Sequence[int], pick=None):
    """Values of ``column`` at ``indices``, preserving the storage class.

    ``pick`` is ``picker(indices)`` when the caller gathers several columns.
    """
    if pick is None:
        pick = picker(indices)
    if type(column) is DictColumn:
        picked = pick(column.codes)
        return DictColumn(column.dictionary, list(picked) if type(picked) is tuple else picked)
    picked = pick(column)
    return list(picked) if type(picked) is tuple else picked


def gather_into(
    columns: list, first: int, sources: Sequence, pick=None, encode: bool = False
) -> None:
    """Extend ``columns[first + j]`` with ``sources[j]``'s values at ``pick``
    — all of them when ``pick`` is ``None`` — copying each value once.

    A list extends straight from a list, and a dict column sharing the
    source's dictionary straight from its codes.  Any other pair gathers
    first and extends through :func:`extend_moving` — or, with ``encode``,
    :func:`extend_column`, which encodes into the column's own dictionary
    where the first degrades it (a hash table's arena owns its dictionary;
    an output accumulator only shares one).  Either way the storage class
    comes out as gathering fresh and then extending makes it.
    """
    for j, source in enumerate(sources, first):
        column = columns[j]
        if type(column) is list:
            if type(source) is list:
                column.extend(source if pick is None else pick(source))
                continue
        elif type(source) is DictColumn and source.dictionary is column.dictionary:
            column.codes.extend(source.codes if pick is None else pick(source.codes))
            continue
        if pick is not None:
            source = gather(source, (), pick)
        (extend_column if encode else extend_moving)(columns, j, source)


def as_values(column) -> Sequence[Any]:
    """``column`` as a random-access value sequence with C-speed indexing.

    Dict-encoded columns decode once (one C-level ``map`` over the codes,
    yielding the dictionary's canonical strings — no string construction);
    everything else is returned as-is.  Bulk consumers that will index a
    column many times (the overflow-resolution joins) call this once per
    chunk instead of paying a Python-level ``__getitem__`` per access.
    """
    if type(column) is DictColumn:
        return list(column)
    if type(column) is RunLengthArrivals:
        return column.to_list()
    return column


def extend_column(columns: list, position: int, values) -> None:
    """Extend ``columns[position]`` with ``values``, degrading to a list on misfit
    (a dict column encodes all of ``values`` before it appends any: nothing to undo)."""
    column = columns[position]
    try:
        column.extend(values)
    except _DEGRADE_ERRORS:
        column = list(column)
        column.extend(values)
        columns[position] = column


def extend_moving(columns: list, position: int, values) -> None:
    """:func:`extend_column` for an accumulator that only ever *moves* codes.

    A dict-encoded accumulator fed anything but codes of its own dictionary
    degrades to a plain list first: encoding would grow a dictionary the
    accumulator merely shares — a hash table's own, whose growth is charged
    to its budget.
    """
    column = columns[position]
    if type(column) is DictColumn and not (
        type(values) is DictColumn and values.dictionary is column.dictionary
    ):
        columns[position] = list(column)
    extend_column(columns, position, values)


def append_value(columns: list, position: int, value) -> None:
    """Append one value to ``columns[position]``, degrading to a list on misfit."""
    try:
        columns[position].append(value)
    except _DEGRADE_ERRORS:
        column = list(columns[position])
        column.append(value)
        columns[position] = column


class ColumnarPartition:
    """An append-only columnar row store with a ``key -> row positions`` index.

    A hash table's column arena (one per table) and the nested-loops join's
    inner buffer.  Rows live as per-attribute column entries plus an arrival
    stamp, in insertion order; :attr:`positions` is the one key index, keyed
    by :data:`~repro.storage.tuples.Key`.  :meth:`extend_gather` indexes a
    batch and :meth:`probe_positions` resolves probe keys in one key pass each,
    and :meth:`gather_rows` turns positions into output columns, so no row
    object exists on either path.

    The store's own history picks one of two regimes.  While every key is held
    once (:attr:`unique` — a primary-key build side) the index maps ``key ->
    position`` and both key passes run at C level: an insert checks only what
    it can falsify (its keys distinct, and disjoint from the index) and makes
    one ``update``; a probe is ``map(index.get, keys)``.  The first duplicate
    key ends it for good (:meth:`generalize`): the values become ascending
    ``[position]`` lists for the plain per-row loops.  Only this class and the
    owning table read them (a table's flushes and compactions read either).

    String columns dictionary-encode (over the supplied ``dictionaries``
    when given, so spill chunks gathered from one hash table stay
    code-compatible).  The arrival column stays a plain list —
    resident stamps come from network scans, which stamp every tuple
    uniquely, so run-length compressing them in place never pays; runs are
    counted (and credited) at spill time, where block-stamped builds do
    collapse.
    """

    __slots__ = ("schema", "columns", "arrivals", "positions", "unique")

    def __init__(self, schema: Schema, dictionaries: Sequence | None = None) -> None:
        self.schema = schema
        self.columns = empty_columns(schema, dictionaries)
        self.arrivals: list[float] = []
        self.positions: dict[Key, Any] = {}
        self.unique = True

    def __len__(self) -> int:
        return len(self.arrivals)

    # -- insertion ------------------------------------------------------------

    def append_position(
        self, source_columns: Sequence[Sequence[Any]], index: int, arrival: float
    ) -> None:
        """Append one row by position from another column set — no row boxing.

        Dict-encoded pairs take inlined paths: a source sharing the target's
        dictionary moves the raw code; a foreign dict source decodes and
        re-encodes with direct ``codes`` lookups (one C-level dict probe in
        the common already-seen case, no per-value Python call).
        """
        columns = self.columns
        for j, source in enumerate(source_columns):
            column = columns[j]
            if type(column) is DictColumn and type(source) is DictColumn:
                dictionary = column.dictionary
                if dictionary is source.dictionary:
                    column.codes.append(source.codes[index])
                    continue
                value = source.dictionary.values[source.codes[index]]
                code = dictionary.codes.get(value)
                if code is None:
                    try:
                        code = dictionary.encode(value)
                    except _DEGRADE_ERRORS:
                        append_value(columns, j, value)
                        continue
                column.codes.append(code)
                continue
            append_value(columns, j, source[index])
        self.arrivals.append(arrival)

    def extend_gather(
        self,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        keys: Sequence[Key],
        indices: Sequence[int],
    ) -> None:
        """Bulk-append the rows of ``source_columns`` at ``indices``.

        One key pass enters each row under ``keys[i]`` — a C-level check and
        one ``update`` while the store stays :attr:`unique`, else a lookup (and
        a store when the key is new) per row.  The payloads then move straight
        onto the store's own columns (:func:`gather_into`, one picker shared
        by every column — a slice for a contiguous range), so each value is
        copied once: a dict column fed from anything but its own dictionary
        bulk-encodes, and a misfit value degrades the column (see
        :func:`extend_column`).
        """
        base = position = len(self.arrivals)
        positions = self.positions
        pick = picker(indices)
        if self.unique:
            fresh = dict(zip(pick(keys), range(base, base + len(indices))))
            if len(fresh) == len(indices) and positions.keys().isdisjoint(fresh):
                positions.update(fresh)
            else:
                self.generalize()
        if not self.unique:
            for i in indices:
                key = keys[i]
                found = positions.get(key)
                if found is None:
                    positions[key] = [position]
                else:
                    found.append(position)
                position += 1
        gather_into(self.columns, 0, source_columns, pick, encode=True)
        self.arrivals.extend(pick(as_values(source_arrivals)))

    def index_newest(self, key: Key) -> bool:
        """Enter the newest row under ``key`` (row-at-a-time paths); true when the key is new."""
        positions, newest = self.positions, len(self.arrivals) - 1
        found = positions.get(key)
        if found is None:
            positions[key] = newest if self.unique else [newest]
            return True
        if self.unique:
            self.generalize()
            found = positions[key]
        found.append(newest)
        return False

    def generalize(self) -> None:
        """Leave the unique regime (one way): every index value becomes the
        ``[position]`` list the general loops work on."""
        if self.unique:
            self.unique = False
            for key, position in list(self.positions.items()):
                self.positions[key] = [position]

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: Key) -> Sequence[int]:
        """The positions holding ``key``, ascending (empty when none do)."""
        found = self.positions.get(key)
        if found is None:
            return ()
        return (found,) if self.unique else found

    def gather_rows(
        self, at: Sequence[int], into: tuple[list, int] | None = None
    ) -> tuple[list, list[float]]:
        """The rows at positions ``at`` as ``(columns, arrivals)``.

        One shared C-level gather applied per column, storage classes kept
        (dict columns move codes) — no per-cell Python bytecode.  With
        ``into = (columns, first)`` the values go straight onto the end of
        ``columns[first:]`` instead (:func:`gather_into`), and that list
        comes back as the columns.
        """
        pick = picker(at)
        if into is None:
            columns = [gather(column, at, pick) for column in self.columns]
        else:
            columns, first = into
            gather_into(columns, first, self.columns, pick)
        return columns, list(pick(self.arrivals))

    def probe_positions(
        self,
        keys: Sequence[Key],
        positions: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> tuple[list[int], list[int], bool] | None:
        """The bulk probe's key pass: ``(take, at, aligned)``, or ``None``
        when nothing matched.

        Match ``i`` pairs probed position ``take[i]`` (only ``positions`` are
        probed, when given) with this store's row ``at[i]``; ``aligned`` is
        true when every key matched exactly once (``take`` is the identity).
        No value moves: the rows are gathered by position afterwards.  With
        ``limit`` the probe stops after the key whose matches bring the total
        to ``limit`` or more, so ``take[-1]`` is the last key a
        tuple-at-a-time probe filling a ``limit``-row batch would consume.
        """
        index = self.positions
        probe = range(len(keys)) if positions is None else positions
        once = True
        if self.unique:
            # At most one match per key: the ``limit``-th hit is where the row loop
            # stops, so the rest is looked up only if misses left the first ``limit`` short.
            n = len(probe)
            stop = n if limit is None else min(n, max(limit, 1))
            take, at = self._hits(keys, probe[:stop])
            if len(take) < stop < n:
                more, found = self._hits(keys, probe[stop:])
                take += more[: stop - len(take)]
                at += found[: stop - len(at)]
        else:
            take: list[int] = []
            at: list[int] = []
            for position in probe:
                key = keys[position]
                found = index.get(key)
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
        return take, at, once and len(take) == len(keys) == len(probe)

    def _hits(self, keys: Sequence[Key], part: Sequence[int]) -> tuple[list[int], list[int]]:
        """The unique regime's key pass, all C-level: the positions of ``part``
        whose key is held, and where each is held."""
        at = list(map(self.positions.get, picker(part)(keys)))
        if None not in at:
            return list(part), at
        hit = list(map(is_not, at, repeat(None)))
        return list(compress(part, hit)), list(compress(at, hit))
