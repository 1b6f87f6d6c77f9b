"""Unit tests for repro.storage.tuples."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder, Row, rows_from_dicts


@pytest.fixture
def schema():
    return Schema.of("t.id:int", "t.name:str")


class TestRow:
    def test_arity_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError):
            Row(schema, (1,))

    def test_index_and_name_access(self, schema):
        row = Row(schema, (7, "ada"))
        assert row[0] == 7
        assert row["t.name"] == "ada"
        assert row["name"] == "ada"

    def test_get_with_default(self, schema):
        row = Row(schema, (7, "ada"))
        assert row.get("missing", "fallback") == "fallback"
        assert row.get("id") == 7

    def test_as_dict(self, schema):
        row = Row(schema, (7, "ada"))
        assert row.as_dict() == {"t.id": 7, "t.name": "ada"}

    def test_with_arrival_copies(self, schema):
        row = Row(schema, (7, "ada"), arrival=1.0)
        later = row.with_arrival(5.0)
        assert later.arrival == 5.0
        assert row.arrival == 1.0
        assert later.values == row.values

    def test_project(self, schema):
        row = Row(schema, (7, "ada"))
        projected = row.project(["t.name"])
        assert projected.values == ("ada",)
        assert projected.schema.names == ("t.name",)

    def test_key(self, schema):
        # Keys are extracted through a binder (names resolved once per schema):
        # a tuple for a composite key, the value itself for one attribute.
        row = Row(schema, (7, "ada"))
        assert KeyBinder(["name", "id"]).key(row) == ("ada", 7)
        binder = KeyBinder(["name"])
        assert binder.single and binder.key(row) == "ada"
        other = Row(Schema.of("u.name:str", "u.id:int"), ("bob", 3))
        assert binder.key(other) == "bob" and binder.indices_in(other.schema) == (0,)

    def test_concat_takes_later_arrival(self, schema):
        other_schema = Schema.of("u.x:int")
        left = Row(schema, (1, "a"), arrival=3.0)
        right = Row(other_schema, (9,), arrival=8.0)
        joined = left.concat(right)
        assert joined.values == (1, "a", 9)
        assert joined.arrival == 8.0
        assert joined.schema.names == ("t.id", "t.name", "u.x")

    def test_size_bytes_matches_schema(self, schema):
        row = Row(schema, (1, "a"))
        assert row.size_bytes == schema.tuple_size

    def test_iteration_and_len(self, schema):
        row = Row(schema, (1, "a"))
        assert list(row) == [1, "a"]
        assert len(row) == 2


class TestRowsFromDicts:
    def test_accepts_base_and_qualified_keys(self, schema):
        rows = rows_from_dicts(schema, [{"t.id": 1, "name": "ada"}])
        assert rows[0].values == (1, "ada")

    def test_missing_attribute_rejected(self, schema):
        with pytest.raises(SchemaError):
            rows_from_dicts(schema, [{"id": 1}])
