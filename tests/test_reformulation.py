"""Unit tests for repro.query.reformulation."""

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.source_desc import SourceDescription
from repro.errors import ReformulationError
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate
from repro.query.reformulation import Reformulator

from helpers import make_relation


@pytest.fixture
def catalog():
    books = make_relation("book", ["isbn:int", "title:str"], [(i, f"b{i}") for i in range(10)])
    reviews = make_relation("review", ["isbn:int", "stars:int"], [(i, i % 5) for i in range(10)])
    catalog = DataSourceCatalog()
    primary = DataSource("books-main", books, lan())
    catalog.register_source(primary, SourceDescription("books-main", "book"))
    mirror = make_mirror(primary, "books-mirror", wide_area())
    catalog.register_source(mirror, SourceDescription("books-mirror", "book"))
    partial = make_mirror(primary, "books-partial", lan(), coverage=0.5, seed=1)
    catalog.register_source(
        partial, SourceDescription("books-partial", "book", complete=False, coverage=0.5)
    )
    catalog.register_source(DataSource("reviews-main", reviews, lan()))
    return catalog


@pytest.fixture
def query():
    return ConjunctiveQuery(
        name="q",
        relations=["book", "review"],
        join_predicates=[JoinPredicate("book", "isbn", "review", "isbn")],
    )


def test_every_relation_gets_a_leaf(catalog, query):
    reformulated = Reformulator(catalog).reformulate(query)
    assert set(reformulated.leaves) == {"book", "review"}
    assert reformulated.query is query


def test_disjunctive_leaf_lists_all_sources(catalog, query):
    reformulated = Reformulator(catalog).reformulate(query)
    leaf = reformulated.leaf("book")
    assert leaf.is_disjunctive
    assert set(leaf.source_names) == {"books-main", "books-mirror", "books-partial"}


def test_primary_is_complete_and_cheapest(catalog, query):
    reformulated = Reformulator(catalog).reformulate(query)
    leaf = reformulated.leaf("book")
    # Complete sources first; among them the LAN source has the lower access cost.
    assert leaf.primary.source_name == "books-main"
    # The incomplete source ranks last.
    assert leaf.source_names[-1] == "books-partial"


def test_single_source_leaf_not_disjunctive(catalog, query):
    reformulated = Reformulator(catalog).reformulate(query)
    assert not reformulated.leaf("review").is_disjunctive


def test_missing_relation_raises(catalog):
    query = ConjunctiveQuery(name="q", relations=["magazine"])
    with pytest.raises(ReformulationError):
        Reformulator(catalog).reformulate(query)


def test_unknown_leaf_lookup_raises(catalog, query):
    reformulated = Reformulator(catalog).reformulate(query)
    with pytest.raises(ReformulationError):
        reformulated.leaf("magazine")
