"""System-R style dynamic-programming join enumeration with saved state.

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

The program runs on a :class:`JoinGraph` compiled once per query and carried
by the saved state: relations are bits, and each predicate's tables,
orientation, selectivity and reliability are read from the catalog once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

from repro.errors import OptimizationError
from repro.optimizer.cost_model import CardinalityEstimate, CostModel
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate


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


class JoinGraph:
    """A query's join graph, compiled once: relations as bits, predicates as edges.

    Bit ``i`` is the ``i``-th relation in sorted order, so a subset's
    ascending submasks are its splits in the order the dynamic program tries
    them, and the first of equal-cost splits wins.  Each predicate's tables,
    orientations, selectivity and reliability are read once, so the
    predicates crossing a split and their selectivity are a walk over edges.
    """

    def __init__(self, query: ConjunctiveQuery, cost_model: CostModel) -> None:
        relations = sorted(query.relations)
        self.bit = {relation: 1 << index for index, relation in enumerate(relations)}
        self.full = (1 << len(relations)) - 1
        #: Every subset as a ``frozenset`` indexed by its mask, and back.
        self.sets = [frozenset()]
        for relation in relations:
            single = frozenset((relation,))
            self.sets += [subset | single for subset in self.sets]
        self.masks = {subset: mask for mask, subset in enumerate(self.sets)}
        #: ``(left bit, right bit, predicate, predicate flipped, selectivity,
        #: reliable)`` per join predicate, in query order — the order the
        #: selectivities of a split are multiplied in.
        self.edges = [
            (self.bit[p.left_table], self.bit[p.right_table], p, p.oriented(p.right_table))
            + cost_model.predicate_selectivity(p)
            for p in query.join_predicates
        ]


def _joined(edges: list[tuple], left: int, right: int) -> tuple | None:
    """``(predicates, selectivity, reliable)`` of the ``edges`` between the
    halves ``left`` and ``right`` of a split: predicates oriented from
    ``left``, their selectivities multiplied in query order, and whether every
    one is known.  ``None`` when no edge crosses (a cross product)."""
    predicates: list[JoinPredicate] = []
    selectivity, reliable = 1.0, True
    for left_bit, right_bit, predicate, flipped, factor, known in edges:
        if left_bit & left and right_bit & right:
            predicates.append(predicate)
        elif left_bit & right and right_bit & left:
            predicates.append(flipped)
        else:
            continue
        selectivity *= factor
        reliable = reliable and known
    return (tuple(predicates), selectivity, reliable) if predicates else None


def _members(bits: int):
    """The positions of the set bits of ``bits`` (a set of masks), ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass
class UsagePointers:
    """Navigation structure over the DP table (Section 6.5).

    ``parents`` maps a subset's mask to every larger enumerated subset that
    could use it as a child, as one int: bit ``m`` stands for mask ``m``.
    Incremental re-optimization walks it upward from the changed subset
    instead of scanning the whole table.
    """

    graph: JoinGraph
    parents: dict[int, int] = field(default_factory=dict)

    @property
    def usable_by(self) -> dict[frozenset[str], set[frozenset[str]]]:
        """The pointers as subsets: each to the larger subsets that could use it."""
        sets = self.graph.sets
        return {
            sets[child]: {sets[parent] for parent in _members(parents)}
            for child, parents in self.parents.items()
        }

    def supersets_of(self, subset: frozenset[str]) -> set[frozenset[str]]:
        """Transitive closure of ``usable_by`` starting at ``subset``."""
        return {self.graph.sets[mask] for mask in self.superset_masks(self.graph.masks[subset])}

    def superset_masks(self, mask: int) -> list[int]:
        """:meth:`supersets_of` over masks."""
        seen, reached = 0, [mask]
        for current in reached:  # grows as it goes: a breadth-first walk
            found = self.parents.get(current, 0) & ~seen
            seen |= found
            reached.extend(_members(found))
        return reached[1:]


@dataclass
class OptimizerState:
    """The saved search space: join graph, DP table, usage pointers, bookkeeping."""

    query: ConjunctiveQuery
    graph: JoinGraph
    table: dict[frozenset[str], DPEntry] = field(default_factory=dict)
    pointers: UsagePointers = field(init=False)
    #: Groups of relations already collapsed into materialized intermediates.
    materialized_groups: list[tuple[frozenset[str], str]] = field(default_factory=list)
    #: Dynamic-program entries (re)computed, plus entries inspected when
    #: re-optimizing without usage pointers — the Section 6.5 work measure.
    nodes_visited: int = 0
    reoptimizations: int = 0

    def __post_init__(self) -> None:
        self.pointers = UsagePointers(self.graph)

    def entry(self, subset: frozenset[str]) -> DPEntry:
        try:
            return self.table[subset]
        except KeyError:
            raise OptimizationError(f"no DP entry for subset {sorted(subset)}") from None

    @property
    def full_set(self) -> frozenset[str]:
        return self.graph.sets[self.graph.full]

    def best_plan(self) -> DPEntry:
        return self.entry(self.full_set)

    def group_masks(self) -> list[int]:
        return [self.graph.masks[group] for group, _ in self.materialized_groups]


class JoinEnumerator:
    """Builds and incrementally maintains the dynamic program."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

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
        graph = JoinGraph(query, self.cost_model)
        state = OptimizerState(query=query, graph=graph)
        for relation in query.relations:
            state.table[graph.sets[graph.bit[relation]]] = self._leaf(relation, primary_sources)
            state.nodes_visited += 1
        # Every proper submask is numerically smaller than its mask, so
        # ascending masks compute each subset after all of its halves.
        masks = [mask for mask in range(3, graph.full + 1) if mask & (mask - 1)]
        self._compute_entries(state, masks, memory_limit_bytes)
        if state.full_set not in state.table:
            raise OptimizationError(
                f"query {query.name!r} has a disconnected join graph; "
                "cross products are not enumerated"
            )
        return state

    def _leaf(self, relation: str, primary_sources: dict[str, str]) -> DPEntry:
        source = primary_sources.get(relation, relation)
        cardinality = self.cost_model.source_cardinality(source)
        cost = self.cost_model.source_scan_cost(source, cardinality.value)
        return DPEntry(frozenset({relation}), cost, cardinality)

    def _materialized(self, subset: frozenset[str], name: str, cardinality: int) -> DPEntry:
        cost = self.cost_model.rescan_cost(cardinality)
        return DPEntry(subset, cost, CardinalityEstimate(cardinality, True), materialized_as=name)

    # -- entry computation ---------------------------------------------------------------------------

    def _compute_entries(
        self, state: OptimizerState, masks: list[int], memory_limit_bytes: int | None,
        groups: list[int] | tuple[()] = (),
    ) -> None:
        """(Re)compute the best plan of each subset in ``masks``, in order; an
        unjoinable subset gets no entry.

        A split is a candidate when both halves have entries and it cuts none
        of the materialized ``groups`` (as masks) inside the subset.
        """
        table, sets, edges = state.table, state.graph.sets, state.graph.edges
        parents = state.pointers.parents
        join_size, join_cost = self.cost_model.join_size, self.cost_model.join_cost_of_sizes
        for mask in masks:
            subset, user = sets[mask], 1 << mask
            inside = [group for group in groups if group & mask == group] if groups else ()
            best = None
            # A split and its mirror (halves swapped) cost exactly the same —
            # float addition is commutative, the join cost symmetric — and the
            # one whose left half lacks the subset's highest relation comes
            # first, so a mirror never wins: left halves are the submasks of
            # ``rest``, ascending.
            rest = mask ^ (1 << (mask.bit_length() - 1))
            left_mask = 0
            while left_mask := (left_mask - rest) & rest:
                left_entry = table.get(sets[left_mask])
                if left_entry is None:
                    continue
                right_mask = mask ^ left_mask
                right_entry = table.get(sets[right_mask])
                if right_entry is None:
                    continue
                if inside and [g for g in inside if g & left_mask and g & right_mask]:
                    continue  # the split cuts a materialized group
                # Usage pointers are recorded for every partition whose halves
                # have entries ("can use it as a left or right child"), even
                # when the halves are not joinable: this guarantees that every
                # enumerated superset of a subquery is reachable through the
                # pointers.  (The mirror split would record the same two.)
                parents[left_mask] = parents.get(left_mask, 0) | user
                parents[right_mask] = parents.get(right_mask, 0) | user
                joined = _joined(edges, left_mask, right_mask)
                if joined is None:
                    continue  # avoid cross products
                predicates, selectivity, reliable = joined
                left_card, right_card = left_entry.cardinality, right_entry.cardinality
                value = join_size(left_card.value, right_card.value, selectivity)
                cost = (
                    left_entry.cost
                    + right_entry.cost
                    + join_cost(left_card.value, right_card.value, value, memory_limit_bytes)
                )
                if best is None or cost < best[0]:
                    reliable = left_card.reliable and right_card.reliable and reliable
                    best = (cost, value, reliable, left_mask, right_mask, predicates)
            if best is None:
                continue
            # Only joinable (connected) subsets become dynamic-program entries;
            # they are what the work counter measures.
            state.nodes_visited += 1
            cost, value, reliable, left_mask, right_mask, predicates = best
            previous = table.get(subset)
            # A materialized subset stays materialized: keep the cheaper option.
            if previous is None or previous.materialized_as is None or cost < previous.cost:
                estimate = CardinalityEstimate(value, reliable)
                left, right = sets[left_mask], sets[right_mask]
                table[subset] = DPEntry(subset, cost, estimate, left, right, predicates)

    # -- incremental re-optimization ---------------------------------------------------------------------

    def apply_materialization(
        self,
        state: OptimizerState,
        covered: frozenset[str],
        result_name: str,
        actual_cardinality: int,
    ) -> None:
        """Replace ``covered``'s entry with the materialized result's true size."""
        state.table[covered] = self._materialized(covered, result_name, actual_cardinality)
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
            affected = state.pointers.superset_masks(state.graph.masks[covered])
        else:
            # No navigation structure: inspect the entire table.
            state.nodes_visited += len(state.table)
            affected = [state.graph.masks[subset] for subset in state.table if covered < subset]
        # A subset's plan depends only on smaller subsets: smallest first.
        affected.sort(key=int.bit_count)
        self._compute_entries(state, affected, memory_limit_bytes, state.group_masks())
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
        query, graph = state.query, state.graph
        fresh = OptimizerState(query=query, graph=graph)
        fresh.reoptimizations = state.reoptimizations + 1
        fresh.materialized_groups = list(state.materialized_groups)
        if (covered, result_name) not in fresh.materialized_groups:
            fresh.materialized_groups.append((covered, result_name))
        # Leaf entries: one per materialized group plus one per un-covered relation.
        groups = fresh.group_masks()
        for group, name in fresh.materialized_groups:
            cardinality = actual_cardinality
            if name != result_name:
                cardinality = state.entry(group).cardinality.value
            fresh.table[group] = self._materialized(group, name, cardinality)
            fresh.nodes_visited += 1
        units, covered_all = list(groups), reduce(or_, groups)
        for relation in query.relations:
            if not graph.bit[relation] & covered_all:
                fresh.table[graph.sets[graph.bit[relation]]] = self._leaf(relation, primary_sources)
                fresh.nodes_visited += 1
                units.append(graph.bit[relation])
        # Enumerate combinations of the residual units (groups + single relations).
        masks = [
            reduce(or_, combo)
            for size in range(2, len(units) + 1)
            for combo in combinations(units, size)
        ]
        self._compute_entries(fresh, masks, memory_limit_bytes, groups)
        return fresh
