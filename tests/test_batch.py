"""Unit and property tests for the columnar Batch abstraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.batch import Batch, BatchCursor, gather_join, transpose_rows
from repro.storage.columns import DictColumn, build_columns
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row

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


def test_from_rows_exposes_columns():
    batch = Batch.from_rows(SCHEMA, SAMPLE)
    assert not batch.is_columnar
    assert len(batch) == 4
    assert batch.columns == [[1, 2, 1, 3], ["a", "b", "c", "d"], [10, 20, 30, 40]]
    assert batch.arrivals == [0.5, 1.5, 2.5, 3.0]


def test_from_columns_materializes_rows_lazily():
    columns = [[1, 2], ["x", "y"], [5, 6]]
    batch = Batch.from_columns(SCHEMA, columns, [1.0, 2.0])
    assert batch.is_columnar
    rows = batch.rows()
    assert [row.values for row in rows] == [(1, "x", 5), (2, "y", 6)]
    assert [row.arrival for row in rows] == [1.0, 2.0]
    assert all(row.schema is SCHEMA for row in rows)
    # Cached: second call returns the same list.
    assert batch.rows() is rows


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
    coded = build_columns(SCHEMA, columnar.columns, encoded=True)
    assert type(coded[0]) is list and type(coded[1]) is DictColumn
    encoded = Batch.from_columns(SCHEMA, coded, columnar.arrivals)
    assert encoded.key_tuples((0,)) is coded[0]
    # A dict-encoded key column decodes once, to the dictionary's own strings.
    keys = encoded.key_tuples((1,))
    assert type(keys) is list and keys == columnar.columns[1]
    assert all(key is coded[1].dictionary.values[code] for key, code in zip(keys, coded[1].codes))


def test_concat_columnar_and_mixed():
    first = Batch.from_columns(SCHEMA, [[1], ["a"], [10]], [0.5])
    second = Batch.from_rows(SCHEMA, SAMPLE[1:2])
    both = Batch.concat(SCHEMA, [first, second])
    assert [row.values for row in both] == [(1, "a", 10), (2, "b", 20)]
    all_columnar = Batch.concat(
        SCHEMA, [first, Batch.from_columns(SCHEMA, [[9], ["z"], [90]], [4.0])]
    )
    assert all_columnar.is_columnar
    assert all_columnar.columns == [[1, 9], ["a", "z"], [10, 90]]


def test_gather_join_matches_row_concat():
    right_schema = Schema.of("r.k:int", "r.v:str")
    right_rows = [
        Row.make(right_schema, (1, "R1"), 2.0),
        Row.make(right_schema, (1, "R2"), 0.1),
    ]
    left = Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [10, 20]], [1.0, 3.0])
    out_schema = SCHEMA.join(right_schema)
    joined = gather_join(left, [0, 0], right_rows, out_schema)
    expected = [
        left[0].concat(right_rows[0], out_schema),
        left[0].concat(right_rows[1], out_schema),
    ]
    assert [row.values for row in joined] == [row.values for row in expected]
    assert joined.arrivals == [row.arrival for row in expected]
    # aligned=True (identity take) must agree with the general path.
    aligned = gather_join(left, [0, 1], right_rows, out_schema, aligned=True)
    general = gather_join(left, [0, 1], right_rows, out_schema)
    assert [row.values for row in aligned] == [row.values for row in general]
    assert aligned.arrivals == general.arrivals


def test_batch_cursor_slices_and_rows():
    batch = Batch.from_rows(SCHEMA, SAMPLE)
    cursor = BatchCursor(batch)
    first = cursor.take(3)
    assert len(first) == 3 and len(cursor) == 1
    assert cursor.next_row().values == SAMPLE[3].values
    assert not cursor
    assert cursor.next_row() is None
    assert not cursor.take(5)


def test_relation_column_block_serves_pending_without_boxing():
    relation = Relation("t", SCHEMA)
    relation.extend_batch(
        Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [10, 20]], [0.0, 0.0])
    )
    relation.extend_batch(
        Batch.from_columns(SCHEMA, [[3, 4], ["c", "d"], [30, 40]], [0.0, 0.0])
    )
    columns, count = relation.column_block(1, 2)  # spans both pending batches
    assert count == 2
    assert columns == [[2, 3], ["b", "c"], [20, 30]]
    columns, count = relation.column_block(3, 5)
    assert count == 1 and columns == [[4], ["d"], [40]]
    columns, count = relation.column_block(9, 5)
    assert count == 0
    # The blocks were served straight from the buffered column lists.
    assert relation._rows == [] and len(relation) == 4
    # After something reads rows, blocks come from the transposed row list.
    assert len(relation.rows) == 4
    columns, count = relation.column_block(0, 2)
    assert count == 2 and columns == [[1, 2], ["a", "b"], [10, 20]]


def test_relation_row_at_reads_rows_then_pending_batches_in_place():
    relation = Relation("t", SCHEMA, SAMPLE[:2])
    relation.extend_batch(Batch.from_columns(SCHEMA, [[7, 8], ["g", "h"], [70, 80]], [0.0, 0.0]))
    relation.extend_batch(Batch.from_columns(SCHEMA, [[9], ["i"], [90]], [0.0]))
    got = [relation.row_at(i, 5.0) for i in range(6)]
    assert [row.values for row in got[:5]] == [
        SAMPLE[0].values, SAMPLE[1].values, (7, "g", 70), (8, "h", 80), (9, "i", 90)
    ]
    assert all(row.arrival == 5.0 for row in got[:5]) and got[5] is None
    assert len(relation._pending) == 2 and len(relation) == 5  # nothing materialized
    assert [row.values for row in relation.rows] == [row.values for row in got[:5]]
    assert relation.row_at(4, 1.0).values == (9, "i", 90) and relation.row_at(5, 1.0) is None


def test_relation_extend_batch_lazy_materialization():
    relation = Relation("t", SCHEMA)
    relation.extend_batch(Batch.from_columns(SCHEMA, [[1, 2], ["a", "b"], [1, 2]], [0.0, 0.0]))
    assert len(relation) == 2
    assert relation.cardinality == 2
    # Column access served straight from the buffered batch.
    assert relation.column("t.k") == [1, 2]
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


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_row_batch_row_round_trip(pairs):
    """rows -> from_rows -> columns -> from_columns -> rows is the identity."""
    rows = make_rows(pairs)
    row_backed = Batch.from_rows(SCHEMA, rows)
    columns = [list(column) for column in row_backed.columns]
    rebuilt = Batch.from_columns(SCHEMA, columns, list(row_backed.arrivals))
    assert len(rebuilt) == len(rows)
    assert [row.values for row in rebuilt.rows()] == [row.values for row in rows]
    assert [row.arrival for row in rebuilt.rows()] == [row.arrival for row in rows]
    # And back again: transposing the materialized rows recovers the columns.
    assert transpose_rows(rebuilt.rows()) == (columns if rows else [])


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.integers(min_value=1, max_value=7))
def test_cursor_reassembles_batch(pairs, chunk):
    rows = make_rows(pairs)
    cursor = BatchCursor(Batch.from_rows(SCHEMA, rows))
    reassembled = []
    while cursor:
        part = cursor.take(chunk)
        assert 0 < len(part) <= chunk
        reassembled.extend(part.rows())
    assert [row.values for row in reassembled] == [row.values for row in rows]


@settings(max_examples=60, deadline=None)
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
        from repro.storage.batch import typed_transpose

        return Batch.from_columns(
            self.schema, typed_transpose(self.schema, self.rows[lo:hi]), [0.0] * (hi - lo)
        )

    def assert_holds(self, columns, positions):
        """``columns`` are plain lists holding exactly the given objects."""
        for j, column in enumerate(columns):
            assert type(column) is list
            assert len(column) == len(positions)
            assert all(cell is self.values[i][j] for cell, i in zip(column, positions))

    def test_build_columns_types_numeric_attributes(self):
        columns = build_columns(self.schema, list(zip(*self.values)))
        self.assert_holds(columns, range(6))

    def test_typed_transpose_from_rows(self):
        from repro.storage.batch import typed_transpose

        self.assert_holds(typed_transpose(self.schema, self.rows), range(6))

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
        coded = build_columns(self.schema, list(zip(*self.values[:3])), encoded=True)
        assert type(coded[2]) is DictColumn
        first = Batch.from_columns(self.schema, coded, [0.0] * 3)
        loose = Batch.from_columns(self.schema, [["x"], [9.0], [None]], [0.0])
        merged = Batch.concat(self.schema, [first, loose])
        assert type(merged.columns[2]) is list
        assert merged.columns[2] == ["n0", "n1", "n2", None]
        assert merged.columns[0] == [2**63, 2**63 + 1, 2**63 + 2, "x"]  # a list holds anything
        assert type(coded[2]) is DictColumn and len(coded[2]) == 3  # the part is untouched
