"""Unit tests for repro.storage.relation."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import (
    column_values,
    distinct_rows,
    join_relations,
    make_relation,
    project_relation,
    qualified_relation,
    select_rows,
    union_relations,
)


class TestConstruction:
    def test_from_values_and_len(self):
        rel = make_relation("r", ["a:int", "b:str"], [(1, "x"), (2, "y")])
        assert len(rel) == 2
        assert rel.cardinality == 2

    def test_append_arity_check(self):
        rel = make_relation("r", ["a:int"], [(1,)])
        with pytest.raises(SchemaError):
            rel.extend([Row(Schema.of("a:int", "b:int"), (1, 2))])
        with pytest.raises(SchemaError):
            make_relation("r", ["a:int"], [(1,), (1, 2)])

    def test_qualified_renames_attributes(self):
        rel = qualified_relation(make_relation("r", ["a:int"], [(1,)]))
        assert rel.schema.names == ("r.a",)
        assert rel[0]["r.a"] == 1


class TestAlgebra:
    def test_select(self, people_relation):
        adults = select_rows(people_relation, lambda row: row["score"] >= 8.0)
        assert {row["name"] for row in adults} == {"ada", "cyd"}

    def test_project_keeps_duplicates(self):
        rel = make_relation("r", ["a:int", "b:str"], [(1, "x"), (1, "y")])
        projected = project_relation(rel, ["a"])
        assert [row.values for row in projected] == [(1,), (1,)]

    def test_join_matches_expected_pairs(self, orders_and_items):
        orders, items = orders_and_items
        joined = join_relations(
            qualified_relation(orders), qualified_relation(items), ["o_id"], ["i_order"]
        )
        assert joined.cardinality == 3
        assert all(row["o_id"] == row["i_order"] for row in joined)

    def test_join_key_length_mismatch(self, orders_and_items):
        orders, items = orders_and_items
        with pytest.raises(Exception):
            join_relations(orders, items, ["o_id"], ["i_order", "i_sku"])

    def test_union_compatible(self):
        a = make_relation("a", ["x:int"], [(1,), (2,)])
        b = make_relation("b", ["y:int"], [(2,), (3,)])
        union = union_relations(a, b)
        assert union.cardinality == 4

    def test_union_incompatible_rejected(self):
        a = make_relation("a", ["x:int"], [(1,)])
        b = make_relation("b", ["y:str"], [("s",)])
        with pytest.raises(SchemaError):
            union_relations(a, b)

    def test_distinct(self):
        rel = make_relation("r", ["a:int"], [(1,), (1,), (2,)])
        assert distinct_rows(rel).cardinality == 2

    def test_multiset(self):
        rel = make_relation("r", ["a:int"], [(1,), (1,), (2,)])
        assert rel.multiset() == {(1,): 2, (2,): 1}


class TestStatisticsHelpers:
    def test_column_and_distinct_count(self, people_relation):
        assert len(column_values(people_relation, "id")) == 4
        assert len(set(column_values(people_relation, "id"))) == 4
