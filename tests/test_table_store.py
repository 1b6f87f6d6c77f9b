"""Unit tests for repro.storage.table_store."""

import pytest

from repro.errors import StorageError
from repro.storage.table_store import LocalStore

from helpers import make_relation


@pytest.fixture
def store():
    return LocalStore()


def test_materialize_and_get(store):
    rel = make_relation("r1", ["a:int"], [(1,), (2,)])
    store.materialize(rel)
    assert store.get("r1") is rel
    assert "r1" in store


def test_get_missing_raises(store):
    with pytest.raises(StorageError):
        store.get("missing")


def test_rematerialize_replaces(store):
    store.materialize(make_relation("r", ["a:int"], [(1,)]))
    store.materialize(make_relation("r", ["a:int"], [(1,), (2,)]))
    assert store.get("r").cardinality == 2
    assert len(store) == 1


def test_iteration(store):
    store.materialize(make_relation("a", ["x:int"], [(1,)]))
    assert list(store) == ["a"]
