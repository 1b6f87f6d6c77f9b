"""Unit and property tests for the columnar Batch abstraction."""

from __future__ import annotations

import array as array_module

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
    # Whatever stores the column, the keys come back as one plain list of values.
    assert columnar.key_tuples((0,)) is columnar.columns[0]
    coded = build_columns(SCHEMA, columnar.columns, encoded=True)
    assert type(coded[0]) is array_module.array and type(coded[1]) is DictColumn
    typed = Batch.from_columns(SCHEMA, coded, columnar.arrivals)
    for index in (0, 1):
        keys = typed.key_tuples((index,))
        assert type(keys) is list and keys == columnar.columns[index]


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
    """Typed (array-backed) columns: construction, stability, fallback."""

    def setup_method(self):
        self.schema = Schema.of("id:int", "score:float", "name:str")

    def test_build_columns_types_numeric_attributes(self):
        from repro.storage.columns import build_columns

        columns = build_columns(
            self.schema, [[1, 2, 3], [0.5, 1.5, 2.5], ["a", "b", "c"]]
        )
        assert isinstance(columns[0], array_module.array)
        assert columns[0].typecode == "q"
        assert columns[1].typecode == "d"
        assert isinstance(columns[2], list)

    def test_typed_transpose_from_rows(self):
        from repro.storage.batch import typed_transpose

        rows = [Row(self.schema, (i, i * 0.5, f"n{i}")) for i in range(4)]
        columns = typed_transpose(self.schema, rows)
        assert columns[0].typecode == "q"
        assert list(columns[0]) == [0, 1, 2, 3]
        assert list(columns[1]) == [0.0, 0.5, 1.0, 1.5]

    def test_build_column_falls_back_on_mixed_types(self):
        from repro.storage.columns import build_column

        column = build_column("int", [1, 2, "oops", 4])
        assert isinstance(column, list)
        assert column == [1, 2, "oops", 4]

    def test_take_and_slice_preserve_storage_class(self):
        from repro.storage.batch import typed_transpose

        rows = [Row(self.schema, (i, float(i), f"n{i}")) for i in range(6)]
        batch = Batch.from_columns(
            self.schema, typed_transpose(self.schema, rows), [0.0] * 6
        )
        taken = batch.take([1, 3, 5])
        assert isinstance(taken.columns[0], array_module.array)
        assert list(taken.columns[0]) == [1, 3, 5]
        sliced = batch.slice(2, 4)
        assert isinstance(sliced.columns[1], array_module.array)
        assert list(sliced.columns[1]) == [2.0, 3.0]
        assert [row.values for row in sliced] == [(2, 2.0, "n2"), (3, 3.0, "n3")]

    def test_concat_preserves_storage_class(self):
        from repro.storage.batch import typed_transpose

        def typed_batch(lo, hi):
            rows = [Row(self.schema, (i, float(i), f"n{i}")) for i in range(lo, hi)]
            return Batch.from_columns(
                self.schema, typed_transpose(self.schema, rows), [0.0] * (hi - lo)
            )

        merged = Batch.concat(self.schema, [typed_batch(0, 3), typed_batch(3, 5)])
        assert isinstance(merged.columns[0], array_module.array)
        assert list(merged.columns[0]) == [0, 1, 2, 3, 4]

    def test_concat_degrades_on_misfit_values(self):
        from repro.storage.batch import typed_transpose

        rows = [Row(self.schema, (i, float(i), f"n{i}")) for i in range(3)]
        typed = Batch.from_columns(
            self.schema, typed_transpose(self.schema, rows), [0.0] * 3
        )
        # A later part carrying a non-int id must degrade the column, not raise.
        loose = Batch.from_columns(self.schema, [["x"], [9.0], ["z"]], [0.0])
        merged = Batch.concat(self.schema, [typed, loose])
        assert isinstance(merged.columns[0], list)
        assert merged.columns[0] == [0, 1, 2, "x"]
        assert len(merged) == 4

    def test_append_value_degrades_typed_column(self):
        from repro.storage.columns import append_value, empty_columns

        columns = empty_columns(self.schema)
        append_value(columns, 0, 7)
        append_value(columns, 0, "mixed")
        assert columns[0] == [7, "mixed"]

    def test_extend_column_repairs_partial_extension(self):
        from repro.storage.columns import empty_columns, extend_column

        columns = empty_columns(self.schema)
        columns[0].extend([1, 2])
        extend_column(columns, 0, [3, "bad", 5], base_length=2)
        assert columns[0] == [1, 2, 3, "bad", 5]

