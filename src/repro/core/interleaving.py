"""Interleaved planning and execution.

The driver in this module alternates between the optimizer and the execution
engine: it executes the current plan until the engine either finishes,
requests re-optimization (a materialized result was far from its estimate, or
a partial plan ran out of fragments), or requests rescheduling (a source
timed out).  Statistics gathered during execution are fed back to the
optimizer before each re-invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionOutcome, ExecutionStatus, QueryExecutor
from repro.engine.stats import QueryRuntimeStats
from repro.errors import ExecutionError
from repro.optimizer.optimizer import Optimizer, PlanningStrategy, ReoptimizationMode
from repro.plan.fragments import QueryPlan
from repro.plan.physical import OperatorType
from repro.query.reformulation import ReformulatedQuery
from repro.storage.relation import Relation


@dataclass
class QueryResult:
    """The outcome of running one query end to end."""

    query_name: str
    answer: Relation | None
    status: ExecutionStatus
    total_time_ms: float
    time_to_first_tuple_ms: float | None
    stats: QueryRuntimeStats
    plans: list[QueryPlan] = field(default_factory=list)
    reoptimizations: int = 0
    reschedules: int = 0
    error: str = ""

    @property
    def cardinality(self) -> int:
        return self.answer.cardinality if self.answer is not None else 0

    @property
    def succeeded(self) -> bool:
        return self.status == ExecutionStatus.COMPLETED


class InterleavedExecutionDriver:
    """Coordinates the optimizer and execution engine for one query."""

    def __init__(
        self,
        catalog: DataSourceCatalog,
        optimizer: Optimizer,
        engine_config: EngineConfig | None = None,
        reoptimization_mode: ReoptimizationMode = ReoptimizationMode.SAVED_STATE,
        max_replans: int = 8,
        max_reschedules: int = 3,
    ) -> None:
        self.catalog = catalog
        self.optimizer = optimizer
        self.engine_config = engine_config or EngineConfig()
        self.reoptimization_mode = reoptimization_mode
        self.max_replans = max_replans
        self.max_reschedules = max_reschedules

    # -- helpers ---------------------------------------------------------------------------

    def _materializations_from(
        self, plan: QueryPlan, outcome: ExecutionOutcome
    ) -> list[tuple[frozenset[str], str, int]]:
        """Maximal completed fragments as (covered, result name, cardinality)."""
        completed = []
        for fragment_id in outcome.completed_fragments:
            fragment = plan.fragment(fragment_id)
            cardinality = outcome.observed_cardinalities.get(fragment.result_name)
            if cardinality is None or not fragment.covers:
                continue
            completed.append((fragment.covers, fragment.result_name, cardinality))
        # Keep only maximal covers (a fragment subsumed by a later one is redundant).
        maximal = []
        for covers, name, cardinality in completed:
            if any(covers < other for other, _, _ in completed):
                continue
            maximal.append((covers, name, cardinality))
        return maximal

    def _reschedule_plan(self, plan: QueryPlan, outcome: ExecutionOutcome) -> QueryPlan:
        """Reorder the remaining fragments so unaffected ones run first.

        This is the query-scrambling response: fragments that do not read a
        failed source are moved ahead of those that do, giving the slow
        source time to recover before it is needed again.  Scans of the
        sources that timed out are retried with a relaxed (4x) timeout, since
        contacting an autonomous source again restarts its startup delay.
        """
        remaining_ids = set(outcome.remaining_fragments)
        remaining = [f for f in plan.fragments if f.fragment_id in remaining_ids]
        failed = set(outcome.failed_sources)
        unaffected = [f for f in remaining if not (set(f.sources()) & failed)]
        affected = [f for f in remaining if set(f.sources()) & failed]
        for fragment in affected:
            for node in fragment.root.walk():
                if node.operator_type == OperatorType.WRAPPER_SCAN and node.params.get("source") in failed:
                    current = node.params.get("timeout_ms")
                    base = float(current) if current not in (None, "") else (
                        self.engine_config.default_timeout_ms or 0.0
                    )
                    node.params["timeout_ms"] = base * 4 if base else None
        reordered = unaffected + affected
        dependencies = {
            fid: {d for d in deps if d in remaining_ids}
            for fid, deps in plan.dependencies.items()
            if fid in remaining_ids
        }
        dependencies = {fid: deps for fid, deps in dependencies.items() if deps}
        return QueryPlan(
            query_name=plan.query_name,
            fragments=reordered,
            dependencies=dependencies,
            global_rules=[r for r in plan.global_rules if not r.fired],
            partial=plan.partial,
            answer_name=plan.answer_name,
            choice_groups=plan.choice_groups,
        )

    # -- main loop ------------------------------------------------------------------------------

    def run(
        self,
        reformulated: ReformulatedQuery,
        strategy: PlanningStrategy = PlanningStrategy.MATERIALIZE_REPLAN,
        context: ExecutionContext | None = None,
    ) -> QueryResult:
        """Plan and execute ``reformulated``, interleaving as needed."""
        context = context or ExecutionContext(
            self.catalog, config=self.engine_config, query_name=reformulated.query.name
        )
        result = self.optimizer.optimize(reformulated, strategy=strategy, plan_suffix="p1")
        plans = [result.plan]
        plan = result.plan
        replans = 0
        reschedules = 0
        outcome: ExecutionOutcome | None = None

        while True:
            executor = QueryExecutor(context)
            outcome = executor.execute(plan)

            if outcome.status == ExecutionStatus.COMPLETED:
                if plan.partial:
                    # The partial plan ran out of fragments: return to the
                    # optimizer with the observed cardinalities.
                    materializations = self._materializations_from(plan, outcome)
                    if not materializations:
                        raise ExecutionError(
                            "partial plan completed without materializing any fragment"
                        )
                    replans += 1
                    result = self.optimizer.reoptimize(
                        result,
                        reformulated,
                        materializations,
                        mode=self.reoptimization_mode,
                        plan_suffix=f"p{len(plans) + 1}",
                    )
                    plan = result.plan
                    plans.append(plan)
                    continue
                break

            if outcome.status == ExecutionStatus.NEEDS_REOPTIMIZATION:
                if replans >= self.max_replans:
                    break
                materializations = self._materializations_from(plan, outcome)
                if not materializations:
                    break
                replans += 1
                result = self.optimizer.reoptimize(
                    result,
                    reformulated,
                    materializations,
                    mode=self.reoptimization_mode,
                    plan_suffix=f"p{len(plans) + 1}",
                )
                plan = result.plan
                plans.append(plan)
                continue

            if outcome.status == ExecutionStatus.RESCHEDULE_REQUESTED:
                if reschedules >= self.max_reschedules:
                    break
                reschedules += 1
                plan = self._reschedule_plan(plan, outcome)
                plans.append(plan)
                continue

            break  # FAILED

        stats = context.stats
        answer = outcome.answer if outcome is not None else None
        if answer is None and plan.answer_name in context.local_store:
            answer = context.local_store.get(plan.answer_name)
        return QueryResult(
            query_name=reformulated.query.name,
            answer=answer,
            status=outcome.status if outcome is not None else ExecutionStatus.FAILED,
            total_time_ms=context.clock.now,
            time_to_first_tuple_ms=stats.time_to_first_tuple,
            stats=stats,
            plans=plans,
            reoptimizations=replans,
            reschedules=reschedules,
            error=outcome.error if outcome is not None else "",
        )
