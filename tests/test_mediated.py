"""Unit tests for repro.query.mediated."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.query.mediated import MediatedRelation, MediatedSchema
from repro.storage.schema import Schema


@pytest.fixture
def schema():
    return MediatedSchema(
        [
            MediatedRelation("book", Schema.of("isbn:int", "title:str")),
            MediatedRelation("review", Schema.of("isbn:int", "stars:int")),
        ]
    )


def test_construction_and_lookup(schema):
    assert len(schema) == 2
    assert schema.get("book").schema == Schema.of("isbn:int", "title:str")
    assert "book" in schema


def test_duplicate_relation_rejected(schema):
    with pytest.raises(SchemaError):
        schema.add_relation("book", Schema.of("x:int"))


def test_unknown_relation_raises(schema):
    with pytest.raises(QueryError):
        schema.get("magazine")


def test_validate_query_relations(schema):
    schema.validate_query_relations(["book", "review"])
    with pytest.raises(QueryError):
        schema.validate_query_relations(["book", "magazine"])


def test_mediated_relation_requires_name():
    with pytest.raises(SchemaError):
        MediatedRelation("", Schema.of("a:int"))


def test_add_relation_returns_relation(schema):
    relation = schema.add_relation("author", Schema.of("name:str"), description="authors")
    assert relation.description == "authors"
    assert "author" in schema
