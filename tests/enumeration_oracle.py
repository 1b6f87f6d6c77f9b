"""The join enumerator before the compiled join graph — the property oracle.

A verbatim copy of ``repro.optimizer.enumeration`` as it was when its dynamic
program walked ``frozenset`` subsets: splits built member by member, predicates
found by :func:`predicates_between`, selectivities read from the catalog on
every split.  ``tests/test_enumeration.py`` holds the compiled enumerator to it
field for field (floats with ``==``), node count for node count, usage pointer
for usage pointer.  Only this docstring differs, and the two engine methods the
old enumerator called are functions here (:func:`predicates_between`,
:func:`join_cardinality`), with the two views of the compiled enumerator's
usage pointers the tests compare (:func:`compiled_usable_by`,
:func:`compiled_supersets_of`).

Original docstring:

System-R style dynamic-programming join enumeration with saved state.

The enumerator builds the classical bottom-up dynamic program over connected
relation subsets.  Its distinguishing features (Sections 3 and 6.5 of the
paper) are:

* the DP table can be **saved** and later **incrementally re-optimized** when
  the actual cardinality of a completed fragment becomes known;
* the saved state carries **usage pointers** from every subquery to the larger
  subqueries that can use it, so incremental re-optimization visits only the
  entries whose best plan could change;
* a re-optimization mode *without* usage pointers is provided as the paper's
  negative control (it must scan the whole table and ends up slower than
  replanning from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.errors import OptimizationError
from repro.optimizer.cost_model import CardinalityEstimate, CostModel
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate


def predicates_between(query: ConjunctiveQuery, left, right) -> list[JoinPredicate]:
    """``query``'s join predicates with one side in ``left`` and the other in
    ``right``, oriented left to right."""
    left_set, right_set = set(left), set(right)
    out = []
    for pred in query.join_predicates:
        if pred.left_table in left_set and pred.right_table in right_set:
            out.append(pred)
        elif pred.left_table in right_set and pred.right_table in left_set:
            out.append(pred.oriented(next(iter(pred.tables() & left_set))))
    return out


def join_cardinality(
    cost_model: CostModel,
    left: CardinalityEstimate,
    right: CardinalityEstimate,
    predicates: list[JoinPredicate],
) -> CardinalityEstimate:
    """System-R style join size estimate."""
    selectivity, selectivity_reliable = cost_model.join_selectivity(
        predicates, left.value, right.value
    )
    return CardinalityEstimate(
        cost_model.join_size(left.value, right.value, selectivity),
        reliable=left.reliable and right.reliable and selectivity_reliable,
    )


def compiled_usable_by(pointers) -> dict[frozenset[str], set[frozenset[str]]]:
    """The compiled enumerator's usage pointers as subsets: each to the larger
    subsets that could use it."""
    sets = pointers.graph.sets
    return {
        sets[child]: {sets[m] for m in range(parents.bit_length()) if parents >> m & 1}
        for child, parents in pointers.parents.items()
    }


def compiled_supersets_of(pointers, subset: frozenset[str]) -> set[frozenset[str]]:
    """Transitive closure of :func:`compiled_usable_by` starting at ``subset``."""
    graph = pointers.graph
    return {graph.sets[mask] for mask in pointers.superset_masks(graph.masks[subset])}


@dataclass
class DPEntry:
    """Best known plan for one relation subset."""

    subset: frozenset[str]
    cost: float
    cardinality: CardinalityEstimate
    left: frozenset[str] | None = None
    right: frozenset[str] | None = None
    predicates: tuple[JoinPredicate, ...] = ()
    #: Set when the subset corresponds to a materialized intermediate result.
    materialized_as: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class UsagePointers:
    """Navigation structure over the DP table (Section 6.5).

    ``usable_by`` maps a subset to every larger enumerated subset that could
    use it as a child; ``used_by`` maps a subset to the subsets whose *best*
    plan actually uses it.  Incremental re-optimization walks ``usable_by``
    upward from the changed subset instead of scanning the whole table.
    """

    usable_by: dict[frozenset[str], set[frozenset[str]]] = field(default_factory=dict)
    used_by: dict[frozenset[str], set[frozenset[str]]] = field(default_factory=dict)

    def record_usable(self, child: frozenset[str], parent: frozenset[str]) -> None:
        self.usable_by.setdefault(child, set()).add(parent)

    def record_used(self, child: frozenset[str], parent: frozenset[str]) -> None:
        self.used_by.setdefault(child, set()).add(parent)

    def clear_used_for(self, parent: frozenset[str]) -> None:
        for users in self.used_by.values():
            users.discard(parent)

    def supersets_of(self, subset: frozenset[str]) -> set[frozenset[str]]:
        """Transitive closure of ``usable_by`` starting at ``subset``."""
        seen: set[frozenset[str]] = set()
        frontier = [subset]
        while frontier:
            current = frontier.pop()
            for parent in self.usable_by.get(current, ()):  # pragma: no branch
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen


@dataclass
class OptimizerState:
    """The saved search space: DP table, usage pointers, and bookkeeping."""

    query: ConjunctiveQuery
    table: dict[frozenset[str], DPEntry] = field(default_factory=dict)
    pointers: UsagePointers = field(default_factory=UsagePointers)
    #: Groups of relations already collapsed into materialized intermediates.
    materialized_groups: list[tuple[frozenset[str], str]] = field(default_factory=list)
    nodes_visited: int = 0
    reoptimizations: int = 0

    def entry(self, subset: frozenset[str]) -> DPEntry:
        try:
            return self.table[subset]
        except KeyError:
            raise OptimizationError(f"no DP entry for subset {sorted(subset)}") from None

    @property
    def full_set(self) -> frozenset[str]:
        return frozenset(self.query.relations)

    def best_plan(self) -> DPEntry:
        return self.entry(self.full_set)


class JoinEnumerator:
    """Builds and incrementally maintains the dynamic program."""

    def __init__(self, cost_model: CostModel, count_leaf_visits: bool = True) -> None:
        self.cost_model = cost_model
        self.count_leaf_visits = count_leaf_visits

    # -- initial enumeration --------------------------------------------------------------------

    def enumerate(
        self,
        query: ConjunctiveQuery,
        primary_sources: dict[str, str],
        memory_limit_bytes: int | None = None,
    ) -> OptimizerState:
        """Build the full dynamic program for ``query``.

        ``primary_sources`` maps each mediated relation to the source whose
        statistics should be used for its leaf estimates.
        """
        state = OptimizerState(query=query)
        relations = list(query.relations)
        # Leaf entries.
        for relation in relations:
            source = primary_sources.get(relation, relation)
            cardinality = self.cost_model.source_cardinality(source)
            entry = DPEntry(
                subset=frozenset({relation}),
                cost=self.cost_model.source_scan_cost(source),
                cardinality=cardinality,
            )
            state.table[entry.subset] = entry
            if self.count_leaf_visits:
                state.nodes_visited += 1
        # Larger subsets, smallest first.
        for size in range(2, len(relations) + 1):
            for combo in combinations(relations, size):
                subset = frozenset(combo)
                self._compute_entry(state, subset, memory_limit_bytes)
        if state.full_set not in state.table:
            raise OptimizationError(
                f"query {query.name!r} has a disconnected join graph; "
                "cross products are not enumerated"
            )
        return state

    # -- entry computation ---------------------------------------------------------------------------

    def _splits(
        self, state: OptimizerState, subset: frozenset[str]
    ) -> list[tuple[frozenset[str], frozenset[str]]]:
        """Candidate (left, right) partitions of ``subset``.

        Both halves must already have DP entries, and no materialized group may
        be split across the two halves.
        """
        members = sorted(subset)
        splits = []
        # Enumerate subsets via bitmasks over the member list (excluding empty/full).
        for mask in range(1, 2 ** len(members) - 1):
            left = frozenset(members[i] for i in range(len(members)) if mask & (1 << i))
            right = subset - left
            if left not in state.table or right not in state.table:
                continue
            if any(
                group & left and group & right
                for group, _ in state.materialized_groups
                if group <= subset
            ):
                continue
            splits.append((left, right))
        return splits

    def _compute_entry(
        self,
        state: OptimizerState,
        subset: frozenset[str],
        memory_limit_bytes: int | None,
    ) -> DPEntry | None:
        """(Re)compute the best plan for ``subset``; returns None if not joinable."""
        query = state.query
        best: DPEntry | None = None
        for left, right in self._splits(state, subset):
            # Usage pointers are recorded for every partition whose halves have
            # entries ("can use it as a left or right child"), even when the
            # halves are not joinable: this guarantees that every enumerated
            # superset of a subquery is reachable through the pointers.
            state.pointers.record_usable(left, subset)
            state.pointers.record_usable(right, subset)
            predicates = predicates_between(query, left, right)
            if not predicates:
                continue  # avoid cross products
            left_entry = state.table[left]
            right_entry = state.table[right]
            cardinality = join_cardinality(
                self.cost_model, left_entry.cardinality, right_entry.cardinality, predicates
            )
            cost = (
                left_entry.cost
                + right_entry.cost
                + self.cost_model.join_cost_of_sizes(
                    left_entry.cardinality.value,
                    right_entry.cardinality.value,
                    cardinality.value,
                    memory_limit_bytes,
                )
            )
            if best is None or cost < best.cost:
                best = DPEntry(
                    subset=subset,
                    cost=cost,
                    cardinality=cardinality,
                    left=left,
                    right=right,
                    predicates=tuple(predicates),
                )
        if best is not None:
            # Only joinable (connected) subsets become dynamic-program entries;
            # they are what the work counter measures.
            state.nodes_visited += 1
            previous = state.table.get(subset)
            state.table[subset] = best
            state.pointers.clear_used_for(subset)
            state.pointers.record_used(best.left, subset)
            state.pointers.record_used(best.right, subset)
            if previous is not None and previous.materialized_as is not None:
                # A materialized subset stays materialized: keep the cheaper option.
                if previous.cost <= best.cost:
                    state.table[subset] = previous
        return state.table.get(subset)

    # -- incremental re-optimization ---------------------------------------------------------------------

    def apply_materialization(
        self,
        state: OptimizerState,
        covered: frozenset[str],
        result_name: str,
        actual_cardinality: int,
    ) -> None:
        """Replace ``covered``'s entry with the materialized result's true size."""
        entry = DPEntry(
            subset=covered,
            cost=self.cost_model.rescan_cost(actual_cardinality),
            cardinality=CardinalityEstimate(actual_cardinality, reliable=True),
            materialized_as=result_name,
        )
        state.table[covered] = entry
        if (covered, result_name) not in state.materialized_groups:
            state.materialized_groups.append((covered, result_name))

    def reoptimize_with_saved_state(
        self,
        state: OptimizerState,
        covered: frozenset[str],
        result_name: str,
        actual_cardinality: int,
        memory_limit_bytes: int | None = None,
        use_usage_pointers: bool = True,
    ) -> OptimizerState:
        """Incrementally re-optimize after ``covered`` was materialized.

        With usage pointers, only the entries reachable from ``covered`` are
        recomputed.  Without them, every entry must be visited to decide
        whether it is affected — the paper's negative control.
        """
        state.reoptimizations += 1
        self.apply_materialization(state, covered, result_name, actual_cardinality)
        if use_usage_pointers:
            affected = state.pointers.supersets_of(covered)
        else:
            # No navigation structure: inspect the entire table.
            affected = set()
            for subset in state.table:
                state.nodes_visited += 1
                if covered < subset:
                    affected.add(subset)
        for subset in sorted(affected, key=len):
            if covered < subset:
                self._compute_entry(state, subset, memory_limit_bytes)
        return state

    def replan_from_scratch(
        self,
        state: OptimizerState,
        covered: frozenset[str],
        result_name: str,
        actual_cardinality: int,
        primary_sources: dict[str, str],
        memory_limit_bytes: int | None = None,
    ) -> OptimizerState:
        """Re-optimize by rebuilding the dynamic program for the residual query.

        The covered subset collapses into a single pseudo-relation, so the
        residual query has ``n - |covered| + 1`` relations.
        """
        query = state.query
        fresh = OptimizerState(query=query)
        fresh.reoptimizations = state.reoptimizations + 1
        fresh.materialized_groups = list(state.materialized_groups)
        if (covered, result_name) not in fresh.materialized_groups:
            fresh.materialized_groups.append((covered, result_name))
        # Leaf entries: one per un-covered relation plus one per materialized group.
        covered_all: set[str] = set()
        for group, name in fresh.materialized_groups:
            cardinality = (
                actual_cardinality
                if name == result_name
                else state.entry(group).cardinality.value
            )
            fresh.table[group] = DPEntry(
                subset=group,
                cost=self.cost_model.rescan_cost(cardinality),
                cardinality=CardinalityEstimate(cardinality, reliable=True),
                materialized_as=name,
            )
            fresh.nodes_visited += 1
            covered_all.update(group)
        for relation in query.relations:
            if relation in covered_all:
                continue
            source = primary_sources.get(relation, relation)
            fresh.table[frozenset({relation})] = DPEntry(
                subset=frozenset({relation}),
                cost=self.cost_model.source_scan_cost(source),
                cardinality=self.cost_model.source_cardinality(source),
            )
            fresh.nodes_visited += 1
        # Enumerate combinations of the residual units (groups + single relations).
        units: list[frozenset[str]] = [group for group, _ in fresh.materialized_groups]
        units.extend(
            frozenset({relation})
            for relation in query.relations
            if relation not in covered_all
        )
        for size in range(2, len(units) + 1):
            for combo in combinations(units, size):
                subset = frozenset().union(*combo)
                self._compute_entry(fresh, subset, memory_limit_bytes)
        return fresh
