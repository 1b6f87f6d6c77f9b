"""Unit and property tests for the columnar Batch abstraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.batch import Batch, MatchCursor, later_stamps, transpose_rows
from repro.storage.columns import (
    DictColumn,
    RunLengthArrivals,
    as_values,
    build_columns,
    make_dictionaries,
)
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.network.source import DataSource
from repro.storage.tuples import Row, counting_row_constructions

from helpers import column_values, concat_rows, examples

SCHEMA = Schema.of("t.k:int", "t.name:str", "t.qty:int")


def make_rows(pairs):
    return [Row.make(SCHEMA, tuple(values), arrival) for values, arrival in pairs]


SAMPLE = make_rows(
    [
        ((1, "a", 10), 0.5),
        ((2, "b", 20), 1.5),
        ((1, "c", 30), 2.5),
        ((3, "d", 40), 3.0),
    ]
)


# -- construction and conversion ------------------------------------------------


def test_from_rows_transposes_once(monkeypatch):
    import repro.storage.batch as batch_module

    calls = []
    transpose = batch_module.transpose_rows
    monkeypatch.setattr(
        batch_module, "transpose_rows", lambda rows: calls.append(1) or transpose(rows)
    )
    batch = Batch.from_rows(SCHEMA, SAMPLE)
    assert len(calls) == 1
    assert batch.columns == [[1, 2, 1, 3], ["a", "b", "c", "d"], [10, 20, 30, 40]]
    assert batch.arrivals == [0.5, 1.5, 2.5, 3.0]
    # Every later read is served by the columns built then.
    columns = batch.columns
    derived = [batch.rows(), batch[2], batch.take([1]), batch.slice(0, 2), batch.key_tuples((0,))]
    assert len(calls) == 1 and batch.columns is columns and all(derived)
    assert not Batch.from_rows(SCHEMA, []) and Batch.from_rows(SCHEMA, []).columns == [[], [], []]


def test_rows_box_on_demand():
    columns = [[1, 2], ["x", "y"], [5, 6]]
    batch = Batch.from_columns(SCHEMA, columns, [1.0, 2.0])
    rows = batch.rows()
    assert [row.values for row in rows] == [(1, "x", 5), (2, "y", 6)]
    assert [row.arrival for row in rows] == [1.0, 2.0]
    assert all(row.schema is SCHEMA for row in rows)
    # Nothing is cached: each call boxes afresh, and the columns stay the batch's.
    again = batch.rows()
    assert again is not rows and again[0] is not rows[0]
    assert [row.values for row in again] == [row.values for row in rows]
    assert batch.columns is columns


def test_empty_batch_is_falsy_end_of_stream_sentinel():
    batch = Batch.empty(SCHEMA)
    assert not batch
    assert len(batch) == 0
    assert batch.rows() == []
    assert batch.columns == [[], [], []]


def test_getitem_without_materializing_all_rows():
    batch = Batch.from_columns(SCHEMA, [[1, 2], ["x", "y"], [5, 6]], [1.0, 2.0])
    row = batch[1]
    assert row.values == (2, "y", 6)
    assert row.arrival == 2.0


def test_take_and_slice_match_row_semantics():
    batch = Batch.from_rows(SCHEMA, SAMPLE).with_schema(SCHEMA)
    columnar = Batch.from_columns(SCHEMA, batch.columns, list(batch.arrivals))
    taken = columnar.take([2, 0])
    assert [row.values for row in taken] == [(1, "c", 30), (1, "a", 10)]
    assert taken.arrivals == [2.5, 0.5]
    sliced = columnar.slice(1, 3)
    assert [row.values for row in sliced] == [(2, "b", 20), (1, "c", 30)]


def test_select_columns_aliases_column_lists():
    batch = Batch.from_columns(SCHEMA, [[1, 2], ["x", "y"], [5, 6]], [1.0, 2.0])
    projected = batch.select_columns([2, 0], Schema.of("t.qty:int", "t.k:int"))
    assert projected.columns[0] is batch.columns[2]
    assert projected.columns[1] is batch.columns[0]
    assert [row.values for row in projected] == [(5, 1), (6, 2)]


def test_key_tuples_both_representations():
    row_backed = Batch.from_rows(SCHEMA, SAMPLE)
    columnar = Batch.from_columns(SCHEMA, row_backed.columns, list(row_backed.arrivals))
    for batch in (row_backed, columnar):
        # One key column: its values, not 1-tuples; composite keys stay tuples.
        assert batch.key_tuples((0,)) == [1, 2, 1, 3]
        assert batch.key_tuples((0, 2)) == [(1, 10), (2, 20), (1, 30), (3, 40)]
    # A plain column *is* its keys: handed over, not copied — numeric ones too.
    assert columnar.key_tuples((0,)) is columnar.columns[0]
    coded = build_columns(SCHEMA, columnar.columns)
    assert type(coded[0]) is list and type(coded[1]) is DictColumn
    encoded = Batch.from_columns(SCHEMA, coded, columnar.arrivals)
    assert encoded.key_tuples((0,)) is coded[0]
    # A dict-encoded key column decodes once, to the dictionary's own strings.
    keys = encoded.key_tuples((1,))
    assert type(keys) is list and keys == columnar.columns[1]
    assert all(key is coded[1].dictionary.values[code] for key, code in zip(keys, coded[1].codes))


def test_concat_keeps_encodings():
    coded = build_columns(SCHEMA, [[1, 2], ["a", "b"], [10, 20]])
    first = Batch.from_columns(SCHEMA, coded, RunLengthArrivals([0.5, 0.5]))
    second = Batch.from_rows(SCHEMA, SAMPLE[1:3])
    both = Batch.concat(SCHEMA, [Batch.empty(SCHEMA), first, second])
    assert [row.values for row in both] == [
        (1, "a", 10), (2, "b", 20), (2, "b", 20), (1, "c", 30)
    ]
    assert list(both.arrivals) == [0.5, 0.5, 1.5, 2.5]
    # The first non-empty part's storage classes carry through: the string
    # column stays coded under its dictionary, the stamps run-length encoded.
    assert type(both.columns[1]) is DictColumn
    assert both.columns[1].dictionary is coded[1].dictionary
    assert type(both.columns[0]) is list
    assert isinstance(both.arrivals, RunLengthArrivals)
    # A plain first part keeps plain lists.
    plain = Batch.concat(SCHEMA, [second, first])
    assert all(type(column) is list for column in plain.columns)
    assert plain.columns == [[2, 1, 1, 2], ["b", "c", "a", "b"], [20, 30, 10, 20]]


def test_gather_join_matches_row_concat():
    right_schema = Schema.of("r.k:int", "r.v:str")
    right_rows = [
        Row.make(right_schema, (1, "R1"), 2.0),
        Row.make(right_schema, (1, "R2"), 0.1),
    ]
    right = Batch.from_rows(right_schema, right_rows)
    left = Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [10, 20]], [1.0, 3.0])
    out_schema = SCHEMA.join(right_schema)
    joined = MatchCursor(out_schema, left, [0, 0], right, [0, 1]).take(2)
    expected = [
        concat_rows(left[0], right_rows[0], out_schema),
        concat_rows(left[0], right_rows[1], out_schema),
    ]
    assert [row.values for row in joined] == [row.values for row in expected]
    assert joined.arrivals == [row.arrival for row in expected]
    # aligned=True (identity take) must agree with the general path, and
    # aliases the probe batch's columns when handed out whole.
    args = (out_schema, left, [0, 1], right, [1, 0])
    aligned, general = MatchCursor(*args, aligned=True).take(2), MatchCursor(*args).take(2)
    assert [row.values for row in aligned] == [row.values for row in general]
    assert aligned.arrivals == general.arrivals == [1.0, 3.0]
    assert all(a is b for a, b in zip(aligned.columns, left.columns))
    # A bound on the build's stamps no later than the probe's earliest: the
    # probe's stamps, taken without comparing — what the pairwise rule picks.
    early = Batch.from_columns(right_schema, right.columns, [0.5, 0.1])
    for bound, left_wins in ((0.5, True), (1.0, True), (2.5, False)):
        cursor = MatchCursor(out_schema, left, [0, 0], early, [0, 1], bound=bound)
        assert cursor.left_wins is left_wins
        assert cursor.take(2).arrivals == [1.0, 1.0] == later_stamps([1.0, 1.0], [0.5, 0.1])


def test_batch_cursor_slices_and_rows():
    right = Batch.from_columns(Schema.of("r.k:int"), [[1, 3]], [0.0, 9.0])
    cursor = MatchCursor(
        SCHEMA.join(right.schema), Batch.from_rows(SCHEMA, SAMPLE), [0, 1, 2, 3], right,
        [0, 1, 0, 1], aligned=True,
    )
    first = cursor.take(3)
    assert len(first) == 3 and len(cursor) == 1
    assert first.arrivals == [0.5, 9.0, 2.5]
    assert [row.values for row in cursor.take(5)] == [SAMPLE[3].values + (3,)]
    assert not cursor
    assert not cursor.take(5)


def test_relation_column_block_serves_pending_without_boxing():
    relation = Relation("t", SCHEMA)
    relation.extend_batch(
        Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [10, 20]], [0.5, 1.5])
    )
    relation.extend_batch(
        Batch.from_columns(SCHEMA, [[3, 4], ["c", "d"], [30, 40]], [1.0, 2.5])
    )
    with counting_row_constructions() as counter:
        assert list(relation.arrivals()) == [0.5, 1.5, 1.0, 2.5]
        columns, count = relation.column_block(1, 2)  # spans both chunks
        assert count == 2
        assert columns == [[2, 3], ["b", "c"], [20, 30]]
        columns, count = relation.column_block(3, 5)
        assert count == 1 and columns == [[4], ["d"], [40]]
        columns, count = relation.column_block(9, 5)
        assert count == 0 and len(relation) == 4
        assert relation.multiset() == {
            (1, "a", 10): 1, (2, "b", 20): 1, (3, "c", 30): 1, (4, "d", 40): 1
        }
        boxed = counter.count
    # The blocks were served straight from the chunks' column lists.
    assert boxed == 0
    # Rows are boxed on demand, afresh on every read, and change nothing.
    with counting_row_constructions() as counter:
        assert [row.values for row in relation.rows][1:3] == [(2, "b", 20), (3, "c", 30)]
        assert relation[-1].values == (4, "d", 40) and relation[2].arrival == 1.0
        boxed = counter.count
    assert boxed == 6
    columns, count = relation.column_block(0, 2)
    assert count == 2 and columns == [[1, 2], ["a", "b"], [10, 20]]
    relation.extend_batch(Batch.from_columns(SCHEMA, [[5], ["e"], [50]], [0.25]))
    assert list(relation.arrivals()) == [0.5, 1.5, 1.0, 2.5, 0.25]


def test_relation_column_block_keeps_codes_and_degrades_mixed_dictionaries():
    def coded(keys, names, dictionaries):
        columns = build_columns(SCHEMA, [keys, names, keys], dictionaries)
        return Batch.from_columns(SCHEMA, columns, [0.0] * len(keys))

    shared = make_dictionaries(SCHEMA)
    relation = Relation("t", SCHEMA)
    relation.extend_batch(coded([1, 2], ["a", "b"], shared))
    relation.extend_batch(Batch.empty(SCHEMA))
    relation.extend_batch(coded([3], ["c"], shared))
    relation.extend_batch(coded([4, 5], ["c", "d"], None))  # its own dictionary
    # Batches sharing a dictionary: the block is that dictionary's codes.
    columns, count = relation.column_block(1, 2)
    assert count == 2 and columns == [[2, 3], ["b", "c"], [2, 3]]
    assert type(columns[1]) is DictColumn and columns[1].dictionary is shared[1]
    assert columns[1].codes == [1, 2] and type(columns[0]) is list
    # One batch of a block coded by another dictionary: that column is values.
    columns, count = relation.column_block(2, 5)
    assert count == 3 and columns == [[3, 4, 5], ["c", "c", "d"], [3, 4, 5]]
    assert type(columns[1]) is list
    # A block inside the foreign batch keeps *its* codes.
    columns, _ = relation.column_block(3, 2)
    assert type(columns[1]) is DictColumn and columns[1].dictionary is not shared[1]
    assert len(shared[1]) == 3  # nothing grew the shared dictionary
    assert len(relation) == 5  # the empty batch added no rows


#: ``Batch``'s own ``columns`` slot, which ``_CountingBatch`` wraps.
_COLUMNS_SLOT = Batch.columns


class _CountingBatch(Batch):
    """A batch that counts how often it is sized or its columns are read."""

    reads = 0

    def __len__(self):
        _CountingBatch.reads += 1
        return super().__len__()

    @property
    def columns(self):
        _CountingBatch.reads += 1
        return _COLUMNS_SLOT.__get__(self)

    @columns.setter
    def columns(self, columns):
        _COLUMNS_SLOT.__set__(self, columns)


MIXED = Schema.of("t.k:int", "t.name:str", "t.w:float")

#: One row of :data:`MIXED`: a ``None`` or an int among the names degrades
#: a dict column to values.
mixed_rows = st.tuples(
    st.tuples(
        st.integers(-5, 5),
        st.one_of(
            st.sampled_from(["a", "b", "c", "d"]), st.text("xyz", max_size=2), st.none(), st.just(7)
        ),
        st.floats(-1.0, 1.0),
    ),
    st.floats(0.0, 100.0),
)
#: How a chunk of rows enters the relation: ``extend`` (encoded over the
#: relation's frozen dictionaries), or ``extend_batch`` over dictionaries
#: shared by every such chunk, of the batch's own, or none (plain lists).
chunk_forms = st.sampled_from(["rows", "shared", "own", "plain"])


@given(
    chunks=st.lists(st.tuples(st.lists(mixed_rows, max_size=5), chunk_forms), max_size=8),
    max_rows=st.integers(1, 7),
)
@settings(max_examples=examples(80), deadline=None)
def test_relation_column_block_reads_only_the_batches_it_spans(chunks, max_rows):
    """Random rows split into random chunks, entered through ``extend`` and
    ``extend_batch`` in every column form: ``len``, the boxed rows, the
    stamps, every block and a source's spans over the relation equal the row
    model, and a block touches only the chunks it spans."""
    relation = Relation("t", MIXED)
    shared = make_dictionaries(MIXED)
    model, sizes = [], []
    for pairs, form in chunks:
        model += pairs
        if form == "rows":
            relation.extend([Row(MIXED, values, arrival) for values, arrival in pairs])
            continue
        sizes.append(len(pairs))
        columns = [list(column) for column in zip(*(values for values, _ in pairs))] or [[], [], []]
        if form != "plain":
            columns = build_columns(MIXED, columns, shared if form == "shared" else None)
        arrivals = [arrival for _, arrival in pairs]
        relation.extend_batch(_CountingBatch.from_columns(MIXED, columns, arrivals))
    values = [values for values, _ in model]
    assert len(relation) == relation.cardinality == len(model)
    assert [(row.values, row.arrival) for row in relation.rows] == model
    source = DataSource("src", relation)
    with counting_row_constructions() as counter:
        assert list(relation.arrivals()) == [arrival for _, arrival in model]
        for start in range(len(model) + 2):
            _CountingBatch.reads = 0
            columns, count = relation.column_block(start, max_rows)
            block = values[start : start + max_rows]
            assert count == len(block)
            assert columns == ([list(column) for column in zip(*block)] or [[], [], []])
            # Only the chunks from the one holding row ``start`` on are read,
            # each at most twice (the first is sized for the accumulators).
            assert _CountingBatch.reads <= 2 * len(sizes)
            assert _CountingBatch.reads <= 2 * (count + 1)
            stop = start + count
            assert source.column_span(start, stop) == columns
        boxed = counter.count
    assert boxed == 0


def test_relation_extend_batch_lazy_materialization():
    relation = Relation("t", SCHEMA)
    relation.extend_batch(Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [1, 2]], [0.0, 0.0]))
    assert len(relation) == 2
    assert relation.cardinality == 2
    # Column access served straight from the chunk.
    assert column_values(relation, "t.k") == [1, 2]
    relation.extend_batch(Batch.from_rows(SCHEMA, SAMPLE[:1]))
    assert len(relation) == 3
    assert [row.values for row in relation] == [(1, "a", 1), (2, "b", 2), (1, "a", 10)]


# -- hypothesis: Batch <-> Row round trips --------------------------------------

values_strategy = st.tuples(
    st.integers(min_value=-100, max_value=100),
    st.text(alphabet="abcdef", min_size=0, max_size=4),
    st.integers(min_value=0, max_value=50),
)
rows_strategy = st.lists(
    st.tuples(values_strategy, st.floats(min_value=0.0, max_value=1e6)),
    min_size=0,
    max_size=30,
)


@settings(max_examples=examples(60), deadline=None)
@given(rows_strategy, st.data())
def test_row_batch_row_round_trip(pairs, data):
    """rows -> from_rows -> columns -> from_columns -> rows is the identity,
    for a ``from_rows`` batch and for what ``take``, ``slice`` and ``concat``
    derive from one, and over run-length stamps (several runs, one run, and
    degraded to a plain list); ``[i]`` and ``key_tuples`` read the same rows."""
    rows = make_rows(pairs)
    n = len(rows)
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=20)) if n else []
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    built = Batch.from_rows(SCHEMA, rows)

    def stamped(expected, stamps):
        """``expected`` re-stamped, and a batch of it over run-length ``stamps``."""
        expected = [Row.make(SCHEMA, row.values, t) for row, t in zip(expected, stamps)]
        columns = transpose_rows(expected) or [[], [], []]
        return Batch.from_columns(SCHEMA, columns, stamps), expected

    # Each drawn row twice, by stamp: one run per distinct stamp.
    twice = sorted(rows * 2, key=lambda row: row.arrival)
    runs_batch, runs_rows = stamped(twice, RunLengthArrivals([row.arrival for row in twice]))
    padded = rows * (64 // n + 1) if n else []
    degraded = RunLengthArrivals([float(i) for i in range(len(padded))])
    assert not padded or degraded._plain is not None
    inputs = [
        (built, rows),
        (built.take(indices), [rows[i] for i in indices]),
        (built.slice(lo, hi), rows[lo:hi]),
        (
            Batch.concat(SCHEMA, [Batch.from_rows(SCHEMA, rows[:lo]), built.slice(lo, n)]),
            rows,
        ),
        (runs_batch, runs_rows),
        (runs_batch.take(indices), [runs_rows[i] for i in indices]),
        stamped(rows, RunLengthArrivals.constant(0.5, n)),
        stamped(padded, degraded),
    ]
    for batch, expected in inputs:
        assert as_values(batch.arrivals) == [row.arrival for row in expected]
        columns = [list(column) for column in batch.columns]
        rebuilt = Batch.from_columns(SCHEMA, columns, list(batch.arrivals))
        assert len(rebuilt) == len(expected)
        assert [row.values for row in rebuilt.rows()] == [row.values for row in expected]
        assert [row.arrival for row in rebuilt.rows()] == [row.arrival for row in expected]
        # And back again: transposing the materialized rows recovers the columns.
        assert transpose_rows(rebuilt.rows()) == (columns if expected else [])
        assert [batch[i].values for i in range(len(batch))] == [row.values for row in expected]
        assert list(batch.key_tuples((0,))) == [row.values[0] for row in expected]
        assert batch.key_tuples((1, 2)) == [row.values[1:] for row in expected]


RIGHT = Schema.of("r.k:int", "r.tag:str", "r.n:int")


@settings(max_examples=examples(150), deadline=None)
@given(
    rows_strategy.filter(bool),
    rows_strategy.filter(bool),
    st.data(),
)
def test_cursor_reassembles_batch(left_pairs, right_pairs, data):
    """A :class:`MatchCursor`'s pieces, whatever their sizes, are the
    whole-batch gather stamped by :func:`later_stamps`: over aligned and
    general probes, list and run-length probe stamps, probes newer than the
    build and older (a scan of a stored relation stamps one run), with and
    without a stamp bound, settled part-way or not — and no piece is longer
    than asked for."""
    right_stamps = [arrival for _, arrival in right_pairs]
    latest = max(right_stamps)
    stamps = [arrival for _, arrival in left_pairs]
    kind = data.draw(st.sampled_from(["drawn", "after the build", "stored relation"]))
    if kind == "after the build":
        stamps = [latest + 1.0 + arrival for arrival in stamps]
    elif kind == "stored relation":
        stamps = [0.0] * len(stamps)
    form = data.draw(st.sampled_from([list, RunLengthArrivals]))
    left_columns = transpose_rows(make_rows(left_pairs))
    left = Batch.from_columns(
        SCHEMA, build_columns(SCHEMA, left_columns, make_dictionaries(SCHEMA)), form(stamps)
    )
    right = Batch.from_columns(
        RIGHT,
        build_columns(RIGHT, transpose_rows(make_rows(right_pairs)), make_dictionaries(RIGHT)),
        right_stamps,
    )
    rights = st.integers(0, len(right_pairs) - 1)
    aligned = data.draw(st.booleans())
    if aligned:
        take = list(range(len(left_pairs)))
    else:
        take = sorted(data.draw(st.lists(st.integers(0, len(left_pairs) - 1), min_size=1)))
    at = data.draw(st.lists(rights, min_size=len(take), max_size=len(take)))
    if data.draw(st.booleans()):  # some runs contiguous, so pieces slice
        at = [min(i, len(right_pairs) - 1) for i in range(len(take))]
    bound = data.draw(st.sampled_from([None, latest, latest + 0.5]))
    expected_values = [left_pairs[i][0] + right_pairs[j][0] for i, j in zip(take, at)]
    expected_stamps = later_stamps([stamps[i] for i in take], [right_stamps[j] for j in at])

    cursor = MatchCursor(SCHEMA.join(RIGHT), left, take, right, at, aligned, bound)
    assert cursor.left_wins == (bound is not None and bound <= min(stamps))
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    settle_at = data.draw(st.one_of(st.none(), st.integers(0, len(sizes))))
    pieces = []
    while cursor:
        if len(pieces) == settle_at:
            cursor.settle()
            for column in right.columns + [right.arrivals]:
                del column[:]  # the store changes under the settled cursor
        n = sizes[min(len(pieces), len(sizes) - 1)]
        remaining = len(cursor)
        piece = cursor.take(n)
        assert len(piece) == min(n, remaining)
        assert type(piece.arrivals) is list
        if aligned and not pieces and n >= len(take):
            assert all(a is b for a, b in zip(piece.columns, left.columns))
        pieces.append(piece)
    assert not cursor.take(3)
    assert [row.values for piece in pieces for row in piece] == expected_values
    assert [stamp for piece in pieces for stamp in piece.arrivals] == expected_stamps


@settings(max_examples=examples(60), deadline=None)
@given(rows_strategy, st.data())
def test_take_matches_row_selection(pairs, data):
    rows = make_rows(pairs)
    batch = Batch.from_rows(SCHEMA, rows)
    columnar = Batch.from_columns(SCHEMA, batch.columns, list(batch.arrivals))
    if rows:
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=20)
        )
    else:
        indices = []
    taken = columnar.take(indices)
    assert [row.values for row in taken] == [rows[i].values for i in indices]
    assert taken.arrivals == pytest.approx([rows[i].arrival for i in indices])


class TestTypedColumns:
    """Columns hold the values they were given: plain lists of the source's
    own objects, whatever the attribute type.  (The class name dates from the
    packed ``array`` layer this contract replaced.)"""

    def setup_method(self):
        self.schema = Schema.of("id:int", "score:float", "name:str")
        # Values no packed buffer hands back as given: an int past 64 bits,
        # an int under a float-typed attribute, floats (boxed anew per read).
        self.values = [(2**63 + i, float(i) if i % 2 else i, f"n{i}") for i in range(6)]
        self.rows = [Row(self.schema, values) for values in self.values]

    def batch(self, lo=0, hi=6):
        from repro.storage.batch import transpose_rows

        return Batch.from_columns(
            self.schema, transpose_rows(self.rows[lo:hi]), [0.0] * (hi - lo)
        )

    def assert_holds(self, columns, positions):
        """``columns`` are plain lists holding exactly the given objects."""
        for j, column in enumerate(columns):
            assert type(column) is list
            assert len(column) == len(positions)
            assert all(cell is self.values[i][j] for cell, i in zip(column, positions))

    def test_build_columns_types_numeric_attributes(self):
        columns = build_columns(self.schema, list(zip(*self.values)))
        self.assert_holds(columns[:2], range(6))
        assert type(columns[2]) is DictColumn
        assert list(columns[2]) == [values[2] for values in self.values]

    def test_take_and_slice_preserve_storage_class(self):
        batch = self.batch()
        self.assert_holds(batch.take([1, 3, 5]).columns, [1, 3, 5])
        self.assert_holds(batch.take([4]).columns, [4])
        sliced = batch.slice(2, 4)
        self.assert_holds(sliced.columns, [2, 3])
        assert [row.values for row in sliced] == self.values[2:4]

    def test_concat_preserves_storage_class(self):
        merged = Batch.concat(self.schema, [self.batch(0, 3), self.batch(3, 5)])
        self.assert_holds(merged.columns, range(5))

    def test_concat_degrades_on_misfit_values(self):
        # What still degrades: a dict-encoded column fed a value it cannot code.
        coded = build_columns(self.schema, list(zip(*self.values[:3])))
        assert type(coded[2]) is DictColumn
        first = Batch.from_columns(self.schema, coded, [0.0] * 3)
        loose = Batch.from_columns(self.schema, [["x"], [9.0], [None]], [0.0])
        merged = Batch.concat(self.schema, [first, loose])
        assert type(merged.columns[2]) is list
        assert merged.columns[2] == ["n0", "n1", "n2", None]
        assert merged.columns[0] == [2**63, 2**63 + 1, 2**63 + 2, "x"]  # a list holds anything
        assert type(coded[2]) is DictColumn and len(coded[2]) == 3  # the part is untouched
