"""The Tukwila query optimizer.

The optimizer takes a reformulated query and produces an annotated,
fragmented query execution plan plus the rules that drive runtime adaptivity.
Its non-traditional aspects (Section 3):

* it may emit a **partial plan** covering only the first join when statistics
  are missing or uncertain, deferring the rest until real cardinalities exist;
* it attaches **event-condition-action rules** (re-optimization checks at
  materialization points, reschedule-on-timeout, overflow policies);
* it **saves its search space** (:class:`~repro.optimizer.enumeration.OptimizerState`)
  so re-optimization after a fragment completes is incremental.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.catalog.catalog import DataSourceCatalog
from repro.errors import OptimizationError
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.enumeration import DPEntry, JoinEnumerator, OptimizerState
from repro.optimizer.memory_alloc import (
    JoinMemoryRequest,
    allocate_memory,
    columnar_build_row_bytes,
)
from repro.optimizer.rulegen import rules_for_fragment
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import (
    JoinImplementation,
    OperatorSpec,
    OverflowMethod,
    collector,
    join,
    table_scan,
    wrapper_scan,
)
from repro.query.reformulation import ReformulatedQuery


class PlanningStrategy(str, Enum):
    """How the optimizer fragments the plan (the Figure 5 strategies)."""

    PIPELINE = "pipeline"
    MATERIALIZE = "materialize"
    MATERIALIZE_REPLAN = "materialize_replan"
    PARTIAL = "partial"


class ReoptimizationMode(str, Enum):
    """How re-optimization reuses prior work (the Section 6.5 comparison)."""

    SAVED_STATE = "saved_state"
    SAVED_STATE_NO_POINTERS = "saved_state_no_pointers"
    SCRATCH = "scratch"


@dataclass
class OptimizerConfig:
    """Optimizer tunables.

    Parameters
    ----------
    dpj_max_build_bytes:
        If a join's (reliable) estimated combined input size exceeds this,
        the optimizer chooses a hybrid hash join instead of the double
        pipelined join.
    replan_factor:
        A fragment triggers re-optimization when its actual cardinality is
        off by at least this factor (the paper uses 2).
    reschedule_on_timeout:
        Whether timeout rules (query scrambling) are attached to fragments.
    default_overflow_method:
        Overflow strategy configured on double pipelined joins.
    memory_pool_bytes:
        Query memory pool divided among join operators (``None`` = unbounded).
    assumed_tuple_size_bytes:
        Tuple size used when the catalog does not know it.
    """

    dpj_max_build_bytes: int | None = None
    replan_factor: float = 2.0
    reschedule_on_timeout: bool = True
    default_overflow_method: OverflowMethod = OverflowMethod.LEFT_FLUSH
    memory_pool_bytes: int | None = None
    assumed_tuple_size_bytes: int = 64
    cost_parameters: CostParameters = field(default_factory=CostParameters)


@dataclass
class OptimizationResult:
    """Everything the optimizer hands to the execution layer."""

    plan: QueryPlan
    state: OptimizerState
    primary_sources: dict[str, str]
    strategy: PlanningStrategy


@dataclass
class _Draft:
    """A fragment plus its join nodes (in walk order) and sources, collected as it is built."""

    fragment: Fragment
    joins: list[OperatorSpec]
    sources: list[str]


class Optimizer:
    """System-R style optimizer with partial plans, rules, and saved state."""

    def __init__(self, catalog: DataSourceCatalog, config: OptimizerConfig | None = None) -> None:
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.cost_model = CostModel(catalog, self.config.cost_parameters)
        self.enumerator = JoinEnumerator(self.cost_model)

    # -- leaf construction --------------------------------------------------------------------

    def _leaf_spec(
        self, reformulated: ReformulatedQuery, relation: str, suffix: str, sources: list[str]
    ) -> OperatorSpec:
        """Build the access spec for one mediated relation leaf."""
        leaf = reformulated.leaf(relation)
        if not leaf.is_disjunctive:
            source = leaf.primary.source_name
            sources.append(source)
            return wrapper_scan(source, operator_id=f"scan_{relation}_{suffix}")
        sources.extend(alt.source_name for alt in leaf.alternatives)
        children = [
            wrapper_scan(alt.source_name, operator_id=f"scan_{relation}_{alt.source_name}_{suffix}")
            for alt in leaf.alternatives
        ]
        dedup_keys = list(self.catalog.source(leaf.primary.source_name).exported_schema.names)
        spec = collector(children, operator_id=f"coll_{relation}_{suffix}")
        spec.params["dedup_keys"] = dedup_keys
        # Start with the primary source plus one fallback mirror; further
        # mirrors are contacted only on failure or by policy rules.
        initially = [children[0].operator_id]
        if len(children) > 1:
            initially.append(children[1].operator_id)
        spec.params["initially_active"] = initially
        return spec

    def _primary_sources(self, reformulated: ReformulatedQuery) -> dict[str, str]:
        return {
            relation: reformulated.leaf(relation).primary.source_name
            for relation in reformulated.query.relations
        }

    # -- join tree construction ----------------------------------------------------------------------

    def _choose_join_implementation(self, left: DPEntry, right: DPEntry) -> JoinImplementation:
        threshold = self.config.dpj_max_build_bytes
        if threshold is not None and left.cardinality.reliable and right.cardinality.reliable:
            tuples = left.cardinality.value + right.cardinality.value
            if tuples * self.config.assumed_tuple_size_bytes > threshold:
                return JoinImplementation.HYBRID_HASH
        return JoinImplementation.DOUBLE_PIPELINED

    def _draft(
        self,
        state: OptimizerState,
        top: DPEntry,
        reformulated: ReformulatedQuery,
        suffix: str,
        fragment_id: str,
        result_name: str,
        rescans: dict[frozenset[str], OperatorSpec],
    ) -> _Draft:
        """The fragment that computes ``top``; a subset in ``rescans`` is read
        back from an earlier fragment's result."""
        joins: list[OperatorSpec] = []
        sources: list[str] = []

        def build(entry: DPEntry) -> OperatorSpec:
            if entry.subset in rescans:
                return rescans[entry.subset]
            if entry.materialized_as is not None:
                name = entry.materialized_as
                return table_scan(name, operator_id=f"tscan_{name}_{suffix}")
            if entry.left is None:  # a leaf
                (relation,) = entry.subset
                spec = self._leaf_spec(reformulated, relation, suffix, sources)
                spec.estimated_cardinality = entry.cardinality.value
                spec.estimate_reliable = entry.cardinality.reliable
                return spec
            left, right = state.table[entry.left], state.table[entry.right]
            # The enumerator orients an entry's predicates from its left half.
            predicates = entry.predicates
            implementation = self._choose_join_implementation(left, right)
            if implementation == JoinImplementation.HYBRID_HASH:
                # The smaller input becomes the build (inner/right) side.
                if left.cardinality.value < right.cardinality.value:
                    left, right = right, left
                    predicates = [p.oriented(p.right_table) for p in predicates]
            slot = len(joins)
            joins.append(None)  # a walk meets this join before its inputs' joins
            spec = join(
                build(left),
                build(right),
                [p.left_qualified for p in predicates],
                [p.right_qualified for p in predicates],
                implementation=implementation,
                estimated_cardinality=entry.cardinality.value,
                overflow_method=self.config.default_overflow_method,
                operator_id=f"join_{'_'.join(sorted(entry.subset))}_{suffix}",
            )
            spec.estimate_reliable = entry.cardinality.reliable
            joins[slot] = spec
            return spec

        fragment = Fragment(
            fragment_id=fragment_id,
            root=build(top),
            result_name=result_name,
            estimated_cardinality=top.cardinality.value,
            estimate_reliable=top.cardinality.reliable,
            covers=top.subset,
        )
        return _Draft(fragment, joins, sources)

    # -- fragmentation ----------------------------------------------------------------------------------

    def _linear_join_order(self, state: OptimizerState, entry: DPEntry) -> list[DPEntry]:
        """Join nodes of the best plan in bottom-up execution order."""
        if entry.left is None or entry.materialized_as is not None:
            return []
        order = self._linear_join_order(state, state.table[entry.left])
        order.extend(self._linear_join_order(state, state.table[entry.right]))
        order.append(entry)
        return order

    def _fragment_per_join(
        self,
        state: OptimizerState,
        reformulated: ReformulatedQuery,
        suffix: str,
        skip: frozenset[str] = frozenset(),
    ) -> tuple[list[_Draft], dict[str, set[str]]]:
        """One fragment per join of the best plan (materializing strategies).

        Joins covering only relations in ``skip`` (already materialized)
        produce no fragment.
        """
        name = reformulated.query.name
        drafts: list[_Draft] = []
        dependencies: dict[str, set[str]] = {}
        produced: dict[frozenset[str], tuple[str, str]] = {}  # subset -> (result, fragment)
        for index, entry in enumerate(self._linear_join_order(state, state.best_plan()), start=1):
            fragment_id, result_name = f"{name}_{suffix}_f{index}", f"{name}_{suffix}_r{index}"
            produced[entry.subset] = (result_name, fragment_id)
            if entry.subset <= skip:
                continue
            rescans: dict[frozenset[str], OperatorSpec] = {}
            deps: set[str] = set()
            for side in (entry.left, entry.right):
                if side in produced:
                    prior_result, prior_fragment = produced[side]
                    rescan = table_scan(prior_result, operator_id=f"tscan_{prior_result}")
                    rescan.estimated_cardinality = state.table[side].cardinality.value
                    rescan.estimate_reliable = state.table[side].cardinality.reliable
                    rescans[side] = rescan
                    if not side <= skip:
                        deps.add(prior_fragment)
            suffixed = f"{suffix}{index}"
            drafts.append(
                self._draft(state, entry, reformulated, suffixed, fragment_id, result_name, rescans)
            )
            if deps:
                dependencies[fragment_id] = deps
        return drafts, dependencies

    def _allocate_memory(self, drafts: list[_Draft]) -> None:
        """Divide the memory pool among all join operators in the plan.

        A join's demand is the estimated size of the inputs it must hold in
        memory: both inputs for the double pipelined join, the smaller input
        for a hybrid hash join.  Poor selectivity estimates therefore starve
        exactly the joins whose inputs were under-estimated, which
        re-optimization later corrects.
        """
        requests = []
        statistics = self.catalog.statistics
        hybrid = JoinImplementation.HYBRID_HASH.value
        for draft in drafts:
            # Demands are in columnar bytes, the unit the hash tables charge at
            # runtime (an allotment is an overflow threshold), per tuple one
            # fragment-wide mean over the scanned sources: the *division* of
            # memory stays driven by the cardinality estimates replanning fixes.
            unit = columnar_build_row_bytes(
                draft.sources, statistics, self.config.assumed_tuple_size_bytes
            )
            for node in draft.joins:
                child_estimates = [
                    child.estimated_cardinality
                    if child.estimated_cardinality is not None
                    else statistics.default_cardinality
                    for child in node.children
                ]
                if node.implementation == hybrid:
                    build_tuples = min(child_estimates)
                else:
                    build_tuples = sum(child_estimates)
                requests.append(JoinMemoryRequest(node.operator_id, build_tuples * unit))
        allocations = allocate_memory(requests, self.config.memory_pool_bytes)
        for draft in drafts:
            for node in draft.joins:
                node.memory_limit_bytes = allocations[node.operator_id]

    def _plan(
        self, name: str, drafts: list[_Draft], dependencies, strategy, partial: bool = False
    ) -> QueryPlan:
        """Rules and memory for the fragments that will run, then the plan.  The
        last fragment is marked final first: nothing is re-planned after it."""
        replan = strategy == PlanningStrategy.MATERIALIZE_REPLAN
        for draft in drafts:
            draft.fragment.mark_final(draft is drafts[-1])
            draft.fragment.rules = rules_for_fragment(
                draft.fragment,
                draft.sources,
                replan_factor=self.config.replan_factor,
                reschedule_on_timeout=self.config.reschedule_on_timeout,
                replan=replan,
            )
        self._allocate_memory(drafts)
        fragments = [draft.fragment for draft in drafts]
        return QueryPlan(name, fragments, dependencies, partial=partial)

    # -- public API ---------------------------------------------------------------------------------------

    def should_plan_partially(self, reformulated: ReformulatedQuery) -> bool:
        """Heuristic from Section 3: plan partially when statistics are unreliable."""
        return not self.cost_model.has_reliable_statistics(
            reformulated.query, self._primary_sources(reformulated)
        )

    def optimize(
        self,
        reformulated: ReformulatedQuery,
        strategy: PlanningStrategy = PlanningStrategy.MATERIALIZE_REPLAN,
        plan_suffix: str = "p1",
    ) -> OptimizationResult:
        """Produce a plan (and saved state) for a reformulated query."""
        query = reformulated.query
        primary_sources = self._primary_sources(reformulated)
        state = self.enumerator.enumerate(
            query, primary_sources, memory_limit_bytes=self.config.memory_pool_bytes
        )
        dependencies: dict[str, set[str]] = {}
        if len(query.relations) == 1 or strategy == PlanningStrategy.PIPELINE:
            # One fully pipelined fragment for the whole query.
            best, prefix = state.best_plan(), f"{query.name}_{plan_suffix}"
            fragment_id, answer = f"{prefix}_f1", f"{prefix}_answer"
            drafts = [self._draft(state, best, reformulated, plan_suffix, fragment_id, answer, {})]
        else:
            drafts, dependencies = self._fragment_per_join(state, reformulated, plan_suffix)
            if strategy == PlanningStrategy.PARTIAL and len(drafts) > 1:
                drafts, dependencies = drafts[:1], {}
        partial = strategy == PlanningStrategy.PARTIAL and len(query.relations) > 2
        plan = self._plan(query.name, drafts, dependencies, strategy, partial)
        return OptimizationResult(plan, state, primary_sources, strategy)

    def reoptimize(
        self,
        previous: OptimizationResult,
        reformulated: ReformulatedQuery,
        materializations: list[tuple[frozenset[str], str, int]],
        mode: ReoptimizationMode = ReoptimizationMode.SAVED_STATE,
        plan_suffix: str = "p2",
    ) -> OptimizationResult:
        """Re-optimize after one or more fragments materialized.

        ``materializations`` lists ``(covered relations, result name, actual
        cardinality)`` for each completed fragment whose result should be
        treated as a base relation.  The returned plan joins those results
        with the remaining relations; the mode controls how much of the
        previous dynamic program is reused.
        """
        if not materializations:
            raise OptimizationError("re-optimization requires at least one materialization")
        state, memory = previous.state, self.config.memory_pool_bytes
        for covered, result_name, actual_cardinality in materializations:
            if not covered:
                raise OptimizationError("re-optimization requires non-empty covered sets")
            if mode == ReoptimizationMode.SCRATCH:
                state = self.enumerator.replan_from_scratch(
                    state, covered, result_name, actual_cardinality, previous.primary_sources,
                    memory,
                )
            else:
                state = self.enumerator.reoptimize_with_saved_state(
                    state, covered, result_name, actual_cardinality, memory,
                    use_usage_pointers=(mode == ReoptimizationMode.SAVED_STATE),
                )
        # Joins that only re-materialize already-covered subsets get no fragment.
        covered_union = frozenset().union(*(covered for covered, _, _ in materializations))
        drafts, dependencies = self._fragment_per_join(
            state, reformulated, plan_suffix, skip=covered_union
        )
        if not drafts:
            raise OptimizationError(
                "re-optimization produced no remaining fragments; the query was already complete"
            )
        plan = self._plan(reformulated.query.name, drafts, dependencies, previous.strategy)
        return OptimizationResult(plan, state, previous.primary_sources, previous.strategy)
