"""Workloads: the join graph over the TPC-D schema and the query sets the
experiments run.

The paper's experiments execute equi-joins along the TPC-D foreign-key graph
(for example ``lineitem ⋈ supplier ⋈ order`` in Figure 3a, ``partsupp ⋈ part``
in Figures 3b/4, and the seven lineitem-free four-table joins in Figure 5).
This module encodes that foreign-key graph, enumerates connected join
subsets, and builds :class:`~repro.query.conjunctive.ConjunctiveQuery`
objects for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate

#: Foreign-key equi-join edges of the TPC-D schema: (table_a, attr_a, table_b, attr_b).
FK_EDGES: tuple[tuple[str, str, str, str], ...] = (
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    # Customers and suppliers located in the same nation: this is the extra
    # join the paper's Figure 5 workload needs to reach seven connected
    # four-table queries that avoid lineitem (see EXPERIMENTS.md).
    ("customer", "c_nationkey", "supplier", "s_nationkey"),
)


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join edge between two tables."""

    left_table: str
    left_attr: str
    right_table: str
    right_attr: str

    def tables(self) -> frozenset[str]:
        return frozenset((self.left_table, self.right_table))

    def as_predicate(self) -> JoinPredicate:
        return JoinPredicate(
            self.left_table, self.left_attr, self.right_table, self.right_attr
        )


class TPCDJoinGraph:
    """The equi-join graph over the TPC-D tables."""

    def __init__(self, edges: tuple[tuple[str, str, str, str], ...] = FK_EDGES) -> None:
        self.edges = [JoinEdge(*edge) for edge in edges]
        self._tables = sorted({t for e in self.edges for t in e.tables()})

    @property
    def tables(self) -> list[str]:
        return list(self._tables)

    def edges_between(self, tables: set[str] | frozenset[str]) -> list[JoinEdge]:
        """All edges whose endpoints both lie in ``tables``."""
        return [e for e in self.edges if e.tables() <= set(tables)]

    def is_connected(self, tables: set[str] | frozenset[str]) -> bool:
        """True when ``tables`` forms a connected subgraph."""
        tables = set(tables)
        if not tables:
            return False
        if len(tables) == 1:
            return True
        start = next(iter(tables))
        seen = {start}
        frontier = [start]
        relevant = self.edges_between(tables)
        while frontier:
            current = frontier.pop()
            for edge in relevant:
                endpoints = edge.tables()
                if current in endpoints:
                    other = next(iter(endpoints - {current}), current)
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        return seen == tables

    def connected_subsets(self, size: int, exclude: set[str] | None = None) -> list[frozenset[str]]:
        """All connected table subsets of the given size (sorted for determinism)."""
        exclude = exclude or set()
        candidates = [t for t in self._tables if t not in exclude]
        found = [
            frozenset(combo)
            for combo in combinations(candidates, size)
            if self.is_connected(frozenset(combo))
        ]
        return sorted(found, key=lambda s: tuple(sorted(s)))

    def query_for(self, tables: set[str] | frozenset[str], name: str | None = None) -> ConjunctiveQuery:
        """Build a conjunctive query joining ``tables`` along the FK edges."""
        table_list = sorted(tables)
        predicates = [e.as_predicate() for e in self.edges_between(set(tables))]
        label = name or "_".join(table_list)
        return ConjunctiveQuery(name=label, relations=table_list, join_predicates=predicates)


def figure5_queries(graph: TPCDJoinGraph | None = None, count: int = 7) -> list[ConjunctiveQuery]:
    """The Figure 5 workload: four-table joins that avoid lineitem.

    The paper reports seven such queries.  We enumerate the connected
    four-table subsets of the foreign-key graph (including the customer/
    supplier same-nation join) and keep the first ``count`` in deterministic
    order, naming them ``Q1`` .. ``Q7``.
    """
    graph = graph or TPCDJoinGraph()
    subsets = graph.connected_subsets(4, exclude={"lineitem"})
    queries = []
    for i, tables in enumerate(subsets[:count], start=1):
        queries.append(graph.query_for(tables, name=f"Q{i}"))
    return queries
