"""Unit tests for repro.query.conjunctive."""

import pytest

from repro.errors import QueryError
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate, SelectionPredicate

from enumeration_oracle import predicates_between


class TestJoinPredicate:
    def test_qualified_names(self):
        pred = JoinPredicate("a", "x", "b", "y")
        assert pred.left_qualified == "a.x"
        assert pred.right_qualified == "b.y"
        assert pred.tables() == frozenset({"a", "b"})
        assert pred.involves("a") and not pred.involves("c")

    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinPredicate("a", "x", "a", "y")

    def test_oriented(self):
        pred = JoinPredicate("a", "x", "b", "y")
        flipped = pred.oriented("b")
        assert flipped.left_table == "b"
        assert flipped.right_qualified == "a.x"
        assert pred.oriented("a") is pred
        with pytest.raises(QueryError):
            pred.oriented("c")


class TestSelectionPredicate:
    def test_evaluate_all_operators(self):
        assert SelectionPredicate("t", "a", "=", 5).evaluate(5)
        assert SelectionPredicate("t", "a", "!=", 5).evaluate(4)
        assert SelectionPredicate("t", "a", "<", 5).evaluate(4)
        assert SelectionPredicate("t", "a", "<=", 5).evaluate(5)
        assert SelectionPredicate("t", "a", ">", 5).evaluate(6)
        assert SelectionPredicate("t", "a", ">=", 5).evaluate(5)
        assert not SelectionPredicate("t", "a", ">", 5).evaluate(5)

    def test_invalid_operator(self):
        with pytest.raises(QueryError):
            SelectionPredicate("t", "a", "like", "x")


class TestConjunctiveQuery:
    def make_query(self):
        return ConjunctiveQuery(
            name="q",
            relations=["a", "b", "c"],
            join_predicates=[JoinPredicate("a", "x", "b", "x"), JoinPredicate("b", "y", "c", "y")],
            selections=[SelectionPredicate("a", "z", ">", 10)],
        )

    def test_requires_relations(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(name="q", relations=[])

    def test_duplicate_relations_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(name="q", relations=["a", "a"])

    def test_predicates_must_reference_query_relations(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                name="q", relations=["a"], join_predicates=[JoinPredicate("a", "x", "b", "y")]
            )
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                name="q", relations=["a"], selections=[SelectionPredicate("b", "x", "=", 1)]
            )

    def test_predicates_between_orients_to_left_set(self):
        query = self.make_query()
        preds = predicates_between(query, ["b"], ["a"])
        assert len(preds) == 1
        assert preds[0].left_table == "b"
        assert preds[0].right_table == "a"

    def test_predicates_between_no_match(self):
        query = self.make_query()
        assert predicates_between(query, ["a"], ["c"]) == []

    def test_join_connected(self):
        assert self.make_query().join_connected()
        disconnected = ConjunctiveQuery(
            name="q2",
            relations=["a", "b", "c"],
            join_predicates=[JoinPredicate("a", "x", "b", "x")],
        )
        assert not disconnected.join_connected()
        assert ConjunctiveQuery(name="single", relations=["a"]).join_connected()

    def test_str_renders_sql_like(self):
        text = str(self.make_query())
        assert text.startswith("SELECT *")
        assert "FROM a, b, c" in text
        assert "WHERE" in text
