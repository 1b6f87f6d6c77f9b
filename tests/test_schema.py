"""Unit tests for repro.storage.schema."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Attribute, Schema, TYPE_SIZES, union_schema


class TestAttribute:
    def test_defaults_size_from_type(self):
        attr = Attribute("x", "int")
        assert attr.avg_size == TYPE_SIZES["int"]

    def test_explicit_size_kept(self):
        attr = Attribute("x", "str", avg_size=100)
        assert attr.avg_size == 100

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", "blob")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", "int")

    def test_base_name(self):
        assert Attribute("orders.o_id", "int").base_name == "o_id"
        assert Attribute("o_id", "int").base_name == "o_id"

    def test_qualified_replaces_existing_qualifier(self):
        attr = Attribute("orders.o_id", "int").qualified("o2")
        assert attr.name == "o2.o_id"


class TestSchema:
    def test_of_mixed_specs(self):
        schema = Schema.of("a:int", ("b", "float"), Attribute("c", "str"), "d")
        assert schema.names == ("a", "b", "c", "d")
        assert schema.attribute("b").type_name == "float"
        assert schema.attribute("d").type_name == "str"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a:int", "a:str")

    def test_index_of_qualified_and_base(self):
        schema = Schema.of("t.a:int", "t.b:str")
        assert schema.index_of("t.a") == 0
        assert schema.index_of("b") == 1

    def test_index_of_ambiguous_base_name(self):
        schema = Schema.of("t.a:int", "u.a:int")
        with pytest.raises(SchemaError):
            schema.index_of("a")
        assert schema.index_of("u.a") == 1

    def test_index_of_missing(self):
        schema = Schema.of("a:int")
        with pytest.raises(SchemaError):
            schema.index_of("zzz")

    def test_contains(self):
        schema = Schema.of("t.a:int")
        assert "t.a" in schema
        assert "a" in schema
        assert "b" not in schema

    def test_project_preserves_order_given(self):
        schema = Schema.of("a:int", "b:str", "c:float")
        projected = schema.project(["c", "a"])
        assert projected.names == ("c", "a")

    def test_join_concatenates(self):
        left = Schema.of("a:int")
        right = Schema.of("b:str")
        assert left.join(right).names == ("a", "b")

    def test_qualified(self):
        schema = Schema.of("a:int", "b:str").qualified("rel")
        assert schema.names == ("rel.a", "rel.b")

    def test_tuple_size_includes_overhead(self):
        schema = Schema.of("a:int", "b:int")
        assert schema.tuple_size == 16 + 2 * TYPE_SIZES["int"]

    def test_compatible_with_same_types(self):
        a = Schema.of("x:int", "y:str")
        b = Schema.of("p:int", "q:str")
        c = Schema.of("p:str", "q:str")
        assert a.compatible_with(b)
        assert not a.compatible_with(c)
        assert not a.compatible_with(Schema.of("x:int"))

    def test_iteration_and_len(self):
        schema = Schema.of("a:int", "b:str")
        assert len(schema) == 2
        assert [attr.name for attr in schema] == ["a", "b"]


class TestMergeUnionSchema:
    def test_keeps_left_names(self):
        left = Schema.of("a:int", "b:str")
        right = Schema.of("x:int", "y:str")
        assert union_schema([left, right, right]).names == ("a", "b")
        # An input not known yet is skipped, and the result is unknown too.
        assert union_schema([None, left, right]) is None
        assert union_schema([None]) is None

    def test_rejects_incompatible(self):
        compatible, incompatible = Schema.of("a:int"), Schema.of("b:str")
        with pytest.raises(SchemaError, match="input #2 is not compatible with input #0"):
            union_schema([compatible, compatible, incompatible, incompatible])
        with pytest.raises(SchemaError, match="input #2 is not compatible with input #1"):
            union_schema([None, compatible, incompatible])
