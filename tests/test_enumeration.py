"""Unit tests for the DP join enumerator and saved optimizer state."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.statistics import SourceStatistics
from repro.errors import OptimizationError
from repro.network.profiles import lan
from repro.network.source import DataSource
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import JoinEnumerator
from repro.optimizer.optimizer import ReoptimizationMode
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate

from helpers import examples, make_relation


def chain_query(tables_and_sizes):
    """A linear chain query A-B-C-... with join predicates on shared key `k`."""
    names = [name for name, _ in tables_and_sizes]
    predicates = [
        JoinPredicate(names[i], "k", names[i + 1], "k") for i in range(len(names) - 1)
    ]
    return ConjunctiveQuery(name="chain", relations=names, join_predicates=predicates)


@pytest.fixture
def setup():
    """Catalog with four chained relations of very different sizes."""
    sizes = [("a", 1000), ("b", 10), ("c", 500), ("d", 20)]
    catalog = DataSourceCatalog()
    for name, size in sizes:
        rel = make_relation(name, ["k:int"], [(i,) for i in range(size)])
        catalog.register_source(DataSource(name, rel, lan()))
    query = chain_query(sizes)
    enumerator = JoinEnumerator(CostModel(catalog))
    sources = {name: name for name, _ in sizes}
    return catalog, query, enumerator, sources


class TestEnumeration:
    def test_full_plan_covers_all_relations(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        best = state.best_plan()
        assert best.subset == frozenset(query.relations)
        assert best.cost > 0
        assert not best.is_leaf

    def test_connected_subsets_only(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        # a-c are not adjacent in the chain: no entry without b.
        assert frozenset({"a", "c"}) not in state.table
        assert frozenset({"a", "b"}) in state.table

    def test_plan_tree_entries_consistent(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        best = state.best_plan()
        assert best.left | best.right == best.subset
        assert not (best.left & best.right)
        assert best.predicates

    def test_disconnected_query_rejected(self, setup):
        catalog, _, enumerator, _ = setup
        query = ConjunctiveQuery(name="disc", relations=["a", "b"])
        with pytest.raises(OptimizationError):
            enumerator.enumerate(query, {"a": "a", "b": "b"})

    def test_leaf_cardinalities_from_catalog(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        assert state.entry(frozenset({"a"})).cardinality.value == 1000
        assert state.entry(frozenset({"b"})).cardinality.value == 10

    def test_usage_pointers_reach_all_supersets(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        reachable = state.pointers.supersets_of(frozenset({"a", "b"}))
        expected = {
            subset for subset in state.table if frozenset({"a", "b"}) < subset
        }
        assert expected <= reachable

    def test_nodes_visited_counted(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        assert state.nodes_visited >= len(state.table)


class TestReoptimization:
    def covered(self):
        return frozenset({"a", "b"})

    def test_saved_state_updates_cardinality_and_plan(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        enumerator.reoptimize_with_saved_state(state, self.covered(), "ab_result", 7)
        entry = state.entry(self.covered())
        assert entry.materialized_as == "ab_result"
        assert entry.cardinality.value == 7
        best = state.best_plan()
        # The final plan must treat {a, b} as an unsplittable unit.
        assert self.covered() in (best.left, best.right) or all(
            not (self.covered() & side) or self.covered() <= side
            for side in (best.left, best.right)
        )

    def test_saved_state_visits_fewer_nodes_than_scratch(self, setup):
        _, query, enumerator, sources = setup
        baseline = enumerator.enumerate(query, sources)
        saved = enumerator.enumerate(query, sources)
        before = saved.nodes_visited
        enumerator.reoptimize_with_saved_state(saved, self.covered(), "ab", 7)
        saved_work = saved.nodes_visited - before
        scratch = enumerator.replan_from_scratch(
            baseline, self.covered(), "ab", 7, sources
        )
        assert saved_work < scratch.nodes_visited

    def test_no_pointers_visits_more_than_with_pointers(self, setup):
        _, query, enumerator, sources = setup
        with_pointers = enumerator.enumerate(query, sources)
        base_with = with_pointers.nodes_visited
        enumerator.reoptimize_with_saved_state(
            with_pointers, self.covered(), "ab", 7, use_usage_pointers=True
        )
        work_with = with_pointers.nodes_visited - base_with

        without_pointers = enumerator.enumerate(query, sources)
        base_without = without_pointers.nodes_visited
        enumerator.reoptimize_with_saved_state(
            without_pointers, self.covered(), "ab", 7, use_usage_pointers=False
        )
        work_without = without_pointers.nodes_visited - base_without
        assert work_without > work_with

    def test_scratch_plan_equivalent_result_subset(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        fresh = enumerator.replan_from_scratch(state, self.covered(), "ab", 7, sources)
        best = fresh.best_plan()
        assert best.subset == frozenset(query.relations)
        assert fresh.entry(self.covered()).materialized_as == "ab"

    def test_successive_materializations(self, setup):
        _, query, enumerator, sources = setup
        state = enumerator.enumerate(query, sources)
        enumerator.reoptimize_with_saved_state(state, frozenset({"a", "b"}), "ab", 7)
        enumerator.reoptimize_with_saved_state(state, frozenset({"a", "b", "c"}), "abc", 3)
        best = state.best_plan()
        assert best.subset == frozenset(query.relations)
        assert state.entry(frozenset({"a", "b", "c"})).materialized_as == "abc"


# -- the compiled join graph against the frozenset enumerator it replaced ----------------------
#
# Round cardinalities and decimal selectivities put ``left * right *
# selectivity`` on integer boundaries, where multiplying the selectivities in
# another order truncates to another cardinality; parallel predicates and
# cycles give splits several predicates to multiply.

ROUND_CARDINALITIES = [1, 7, 10, 30, 70, 100, 300, 1000, 3000, 10_000]
DECIMAL_SELECTIVITIES = [0.1, 0.2, 0.3, 0.7, 0.9, 0.01, 0.03, 0.07, 0.001, 1.0]


def join_problem(relations, pairs, statistics, selectivities, memory=None,
                 mode=ReoptimizationMode.SAVED_STATE, steps=(), default_cardinality=1000):
    """``(catalog, query, memory, mode, steps)``: one predicate per ``(i, j)``
    pair, relation ``i`` on its left; statistics and selectivities (``None`` =
    unknown to the catalog) in relation and predicate order."""
    catalog = DataSourceCatalog(default_cardinality=default_cardinality)
    for name, stats in zip(relations, statistics):
        catalog.statistics.set_source(name, stats)
    predicates = [
        JoinPredicate(relations[i], f"x{index}", relations[j], f"y{index}")
        for index, (i, j) in enumerate(pairs)
    ]
    for predicate, selectivity in zip(predicates, selectivities):
        if selectivity is not None:
            catalog.statistics.set_join_selectivity(
                predicate.left_qualified, predicate.right_qualified, selectivity
            )
    query = ConjunctiveQuery(name="g", relations=relations, join_predicates=predicates)
    return catalog, query, memory, mode, list(steps)


@st.composite
def join_problems(draw):
    """A connected join graph of 2-7 relations — tree edges up to four
    predicates wide, plus chords — with partial statistics, a memory limit,
    a re-optimization mode and a materialization sequence."""
    count = draw(st.integers(min_value=2, max_value=7))
    relations = draw(st.permutations("abcdefg"))[:count]
    pairs = []
    for i in range(1, count):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            pairs.append((i, j) if draw(st.booleans()) else (j, i))
    chords = st.tuples(st.integers(0, count - 1), st.integers(1, count - 1))
    pairs += [(i, (i + step) % count) for i, step in draw(st.lists(chords, max_size=3))]
    # Mostly round numbers and decimal fractions (unknown ones default to
    # round ones too), now and then anything.
    actual = st.sampled_from(ROUND_CARDINALITIES) | st.integers(1, 10**6)
    cardinality = st.sampled_from([*ROUND_CARDINALITIES, None]) | actual
    statistics = [
        SourceStatistics(
            cardinality=draw(cardinality),
            tuple_size_bytes=draw(st.sampled_from([None, 16, 100])),
            access_cost_ms=draw(st.sampled_from([None, 0.0, 25.0])),
        )
        for _ in relations
    ]
    selectivity = st.sampled_from([*DECIMAL_SELECTIVITIES, None]) | st.floats(1e-6, 1.0)
    return join_problem(
        relations,
        pairs,
        statistics,
        [draw(selectivity) for _ in pairs],
        memory=draw(st.none() | st.sampled_from([0, 640, 64_000]) | st.integers(0, 10**7)),
        mode=draw(st.sampled_from(list(ReoptimizationMode))),
        steps=draw(st.lists(st.tuples(st.integers(0, 1000), actual), max_size=4)),
        default_cardinality=draw(st.sampled_from([10, 1000])),
    )


def entry_fields(entry):
    return (
        entry.subset, entry.cost, entry.cardinality, entry.left, entry.right,
        entry.predicates, entry.materialized_as,
    )


def assert_same_state(compiled, reference):
    assert compiled.nodes_visited == reference.nodes_visited
    assert compiled.reoptimizations == reference.reoptimizations
    assert compiled.materialized_groups == reference.materialized_groups
    assert compiled.table.keys() == reference.table.keys()
    for subset, entry in reference.table.items():
        assert entry_fields(compiled.table[subset]) == entry_fields(entry), sorted(subset)
    assert compiled.pointers.usable_by == reference.pointers.usable_by
    for subset in reference.table:
        assert compiled.pointers.supersets_of(subset) == reference.pointers.supersets_of(subset)


def next_cover(state, choice):
    """A subset with an entry that cuts no materialized group, as the driver
    would report a completed fragment (``None`` when there is none)."""
    candidates = sorted(
        (
            subset
            for subset in state.table
            if len(subset) > 1
            and not any(group & subset and not group <= subset
                        for group, _ in state.materialized_groups)
        ),
        key=lambda subset: (len(subset), sorted(subset)),
    )
    return candidates[choice % len(candidates)] if candidates else None


@given(problem=join_problems())
# Three predicates between two relations of 10 and 100 rows with
# selectivities 0.1, 0.2 and 0.7: multiplied in query order the estimate is
# 14 rows, in reverse order 13.
@example(
    problem=join_problem(
        ("a", "b"),
        [(0, 1)] * 3,
        [SourceStatistics(cardinality=10), SourceStatistics(cardinality=100)],
        [0.1, 0.2, 0.7],
    )
)
@settings(max_examples=examples(80), deadline=None)
def test_compiled_enumerator_matches_the_frozenset_enumerator(problem):
    catalog, query, memory, mode, steps = problem
    sources = {relation: relation for relation in query.relations}
    model = CostModel(catalog)
    compiled, reference = JoinEnumerator(model), oracle.JoinEnumerator(model)
    compiled_state = compiled.enumerate(query, sources, memory)
    reference_state = reference.enumerate(query, sources, memory)
    assert_same_state(compiled_state, reference_state)
    for index, (choice, actual) in enumerate(steps):
        covered = next_cover(reference_state, choice)
        if covered is None:
            break
        arguments = (covered, f"m{index}", actual)
        if mode == ReoptimizationMode.SCRATCH:
            compiled_state = compiled.replan_from_scratch(
                compiled_state, *arguments, sources, memory
            )
            reference_state = reference.replan_from_scratch(
                reference_state, *arguments, sources, memory
            )
        else:
            pointers = mode == ReoptimizationMode.SAVED_STATE
            compiled.reoptimize_with_saved_state(compiled_state, *arguments, memory, pointers)
            reference.reoptimize_with_saved_state(reference_state, *arguments, memory, pointers)
        assert_same_state(compiled_state, reference_state)
