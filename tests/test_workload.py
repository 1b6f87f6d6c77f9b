"""Unit tests for repro.datagen.workload."""

import pytest

from repro.datagen.workload import (
    TPCDJoinGraph,
    figure5_queries,
)


@pytest.fixture(scope="module")
def graph():
    return TPCDJoinGraph()


class TestJoinGraph:
    def test_tables_cover_tpcd(self, graph):
        assert "lineitem" in graph.tables
        assert "region" in graph.tables

    def test_edges_between(self, graph):
        edges = graph.edges_between({"part", "partsupp"})
        assert len(edges) == 1
        assert edges[0].tables() == frozenset({"part", "partsupp"})

    def test_is_connected(self, graph):
        assert graph.is_connected({"part", "partsupp", "supplier"})
        assert not graph.is_connected({"part", "orders"})
        assert graph.is_connected({"region"})
        assert not graph.is_connected(set())

    def test_connected_subsets_exclude(self, graph):
        subsets = graph.connected_subsets(4, exclude={"lineitem"})
        assert all("lineitem" not in s for s in subsets)
        assert len(subsets) >= 7

    def test_connected_subsets_deterministic_order(self, graph):
        assert graph.connected_subsets(3) == graph.connected_subsets(3)

    def test_query_for_builds_connected_query(self, graph):
        query = graph.query_for({"part", "partsupp", "supplier"})
        assert set(query.relations) == {"part", "partsupp", "supplier"}
        assert len(query.join_predicates) == 2
        assert query.join_connected()


class TestWorkloadQueries:

    def test_figure5_has_seven_four_table_queries(self):
        queries = figure5_queries()
        assert len(queries) == 7
        for query in queries:
            assert len(query.relations) == 4
            assert "lineitem" not in query.relations
            assert query.join_connected()
        assert [q.name for q in queries] == [f"Q{i}" for i in range(1, 8)]
