"""The paper's figures and the two ablations, on the virtual clock.

Each experiment function builds its deployment at the scale its figure is
checked at, runs the experiment, and returns a :class:`Figure`: the
per-run results that ``tests/test_figures.py`` asserts the paper's shapes
on, and one table.  Every number is virtual milliseconds or a count; real
time is perflab's to measure.  ``python -m repro.bench.figures`` prints all
seven tables.

The paper ran hand-coded plans for the join experiments (Figs. 3a, 3b and
4), so those bypass the optimizer through
:func:`~repro.bench.harness.run_operator_tree`; Fig. 5 and §6.5 exercise
the optimizer itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.bench.harness import build_deployment, run_operator_tree
from repro.bench.reporting import format_table, speedup, timeline_series
from repro.catalog.catalog import DataSourceCatalog
from repro.core.interleaving import InterleavedExecutionDriver
from repro.datagen.workload import TPCDJoinGraph, figure5_queries
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.network.profiles import dead, lan, slow_start, wide_area
from repro.network.source import DataSource, make_mirror
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import JoinEnumerator
from repro.optimizer.optimizer import Optimizer, OptimizerConfig, PlanningStrategy
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import (
    JoinImplementation,
    OverflowMethod,
    collector,
    join,
    union_,
    wrapper_scan,
)
from repro.plan.rules import Compare, EventType, Rule, constant, event_value, replan
from repro.query.reformulation import Reformulator
from repro.storage.memory import MB
from repro.storage.relation import Relation
from repro.storage.schema import Schema


@dataclass
class Figure:
    """One experiment's results and the table that reports them."""

    results: dict
    title: str
    headers: list[str]
    rows: list[list[object]]
    #: Lines printed under the table (a series, totals, the paper's numbers).
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        return "\n".join([self.title, format_table(self.headers, self.rows), *self.notes])


def _timing_row(result) -> list[object]:
    return [
        result.cardinality,
        round(result.time_to_first_tuple_ms or 0.0, 1),
        round(result.completion_time_ms, 1),
    ]


# -- Figure 3a ---------------------------------------------------------------------------

FIG3A_SCALE_MB = 4.0


def _lineitem_supplier_orders(first_join_build: str, implementation: JoinImplementation):
    """(lineitem ⋈ supplier) ⋈ orders; ``first_join_build`` names the relation
    loaded into the first join's hash table ("supplier" is the good choice,
    "lineitem" the bad one).  Orders is the second join's build side."""
    sides = [(wrapper_scan("lineitem"), "lineitem.l_suppkey"),
             (wrapper_scan("supplier"), "supplier.s_suppkey")]
    if first_join_build == "lineitem":
        sides.reverse()
    (probe, probe_key), (build, build_key) = sides
    first = join(probe, build, [probe_key], [build_key], implementation=implementation)
    return join(
        first, wrapper_scan("orders"), ["lineitem.l_orderkey"], ["orders.o_orderkey"],
        implementation=implementation,
    )


def fig3a() -> Figure:
    """Figure 3a: ``lineitem ⋈ supplier ⋈ orders`` over the LAN, the double
    pipelined join against the hybrid hash join under both build choices."""
    deployment = build_deployment(FIG3A_SCALE_MB, ["lineitem", "orders", "supplier"], seed=42)
    plans = {
        "double_pipelined": _lineitem_supplier_orders(
            "supplier", JoinImplementation.DOUBLE_PIPELINED
        ),
        "hybrid_(lineitem*supplier)*orders": _lineitem_supplier_orders(
            "supplier", JoinImplementation.HYBRID_HASH
        ),
        "hybrid_(supplier*lineitem)*orders": _lineitem_supplier_orders(
            "lineitem", JoinImplementation.HYBRID_HASH
        ),
    }
    results = {
        label: run_operator_tree(spec, deployment.catalog, result_name=f"fig3a_{label}")
        for label, spec in plans.items()
    }
    notes = ["tuples-vs-time series (double pipelined):"] + [
        f"  {point.tuples:>8} tuples by {point.time_ms:10.1f} ms"
        for point in timeline_series(results["double_pipelined"].timeline, points=8)
    ]
    return Figure(
        results,
        "Figure 3a — lineitem x supplier x orders (LAN, virtual ms)",
        ["plan", "tuples", "first tuple (ms)", "completion (ms)"],
        [[label, *_timing_row(result)] for label, result in results.items()],
        notes,
    )


# -- Figure 3b ---------------------------------------------------------------------------

FIG3B_SCALE_MB = 3.0

#: The four link conditions of Figure 3b: (label, outer profile, inner profile).
FIG3B_CONDITIONS = [
    ("both_slow", wide_area(), wide_area()),
    ("inner_slow", lan(), wide_area()),
    ("outer_slow", wide_area(), lan()),
    ("full_speed", lan(), lan()),
]


def fig3b() -> Figure:
    """Figure 3b: ``partsupp ⋈ part`` (part the inner) over a trans-Atlantic
    link, both joins under each of the four link conditions.  Results are
    keyed ``(join, condition)``."""
    deployment = build_deployment(FIG3B_SCALE_MB, ["part", "partsupp"], seed=42)
    results = {}
    for label, outer_profile, inner_profile in FIG3B_CONDITIONS:
        deployment.set_profile("partsupp", outer_profile)
        deployment.set_profile("part", inner_profile)
        for method in (JoinImplementation.DOUBLE_PIPELINED, JoinImplementation.HYBRID_HASH):
            spec = join(
                wrapper_scan("partsupp"),
                wrapper_scan("part"),
                ["partsupp.ps_partkey"],
                ["part.p_partkey"],
                implementation=method,
            )
            results[(method.value, label)] = run_operator_tree(
                spec, deployment.catalog, result_name=f"fig3b_{method.value}_{label}"
            )
    deployment.set_all_profiles(lan())
    return Figure(
        results,
        "Figure 3b — partsupp x part over a wide-area link (virtual ms)",
        ["join", "condition", "tuples", "first tuple (ms)", "completion (ms)"],
        [[*key, *_timing_row(result)] for key, result in sorted(results.items())],
    )


# -- Figure 4 ----------------------------------------------------------------------------

FIG4_SCALE_MB = 3.0
FIG4_TABLES = ["part", "partsupp"]

#: Memory as a fraction of the state the join needs, mirroring the paper's
#: 64 MB (fits) / 32 MB / 16 MB points for a 48 MB join.
FIG4_MEMORY_FRACTIONS = {"fits": None, "two_thirds": 2 / 3, "one_third": 1 / 3}

#: Spill I/O is charged at spinning-disk rates for this experiment.
FIG4_ENGINE_CONFIG = EngineConfig(disk_page_read_ms=1.0, disk_page_write_ms=1.2)


def output_stall_ms(result) -> float:
    """Longest gap between consecutive output tuples (the Left Flush pause)."""
    times = result.timeline.times_ms
    return max((b - a for a, b in zip(times, times[1:])), default=0.0)


def fig4() -> Figure:
    """Figure 4: ``part ⋈ partsupp`` in a double pipelined join under memory
    pressure, resolved by Incremental Left Flush or Symmetric Flush.  Memory
    is a fraction of both inputs' encoded row bytes (dictionary entries
    aside): the figure needs the overflow points, not the paper's unit.
    Results are keyed ``(strategy, memory)``."""
    deployment = build_deployment(FIG4_SCALE_MB, FIG4_TABLES, seed=42)
    needed = sum(
        relation.cardinality * relation.schema.encoded_row_size
        for relation in (deployment.database[table] for table in FIG4_TABLES)
    )
    results = {}
    for memory_label, fraction in FIG4_MEMORY_FRACTIONS.items():
        memory_bytes = None if fraction is None else int(needed * fraction)
        for method in (OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH):
            if fraction is None and method == OverflowMethod.SYMMETRIC_FLUSH:
                continue  # with ample memory the strategy never engages
            spec = join(
                wrapper_scan("part"),
                wrapper_scan("partsupp"),
                ["part.p_partkey"],
                ["partsupp.ps_partkey"],
                implementation=JoinImplementation.DOUBLE_PIPELINED,
                overflow_method=method,
                memory_limit_bytes=memory_bytes,
            )
            results[(method.value, memory_label)] = run_operator_tree(
                spec,
                deployment.catalog,
                result_name=f"fig4_{method.value}_{memory_label}",
                engine_config=FIG4_ENGINE_CONFIG,
            )
    rows = [
        [
            *key,
            *_timing_row(result),
            round(output_stall_ms(result), 1),
            result.context.disk.stats.tuples_written,
        ]
        for key, result in sorted(results.items())
    ]
    return Figure(
        results,
        "Figure 4 — part x partsupp under memory pressure (virtual ms)",
        [
            "strategy",
            "memory",
            "tuples",
            "first tuple (ms)",
            "completion (ms)",
            "longest stall (ms)",
            "tuples spilled",
        ],
        rows,
    )


# -- Figure 5 ----------------------------------------------------------------------------

FIG5_SCALE_MB = 2.0

FIG5_STRATEGIES = [
    PlanningStrategy.MATERIALIZE,
    PlanningStrategy.MATERIALIZE_REPLAN,
    PlanningStrategy.PIPELINE,
]

#: Query memory pool divided among the plan's joins by *estimated* need.
FIG5_MEMORY_POOL_BYTES = 2 * MB

#: Spill I/O priced at spinning-disk rates (the paper's engine wrote real files).
FIG5_ENGINE_CONFIG = EngineConfig(disk_page_read_ms=2.0, disk_page_write_ms=2.5)


def fig5_totals(results) -> dict[str, float]:
    """Each strategy's completion time summed over the seven queries."""
    queries = {query for query, _ in results}
    return {
        strategy.value: sum(results[(query, strategy.value)].total_time_ms for query in queries)
        for strategy in FIG5_STRATEGIES
    }


def fig5() -> Figure:
    """Figure 5: the seven four-table joins that avoid lineitem, planned with
    correct base cardinalities but default join selectivities, under
    materialize, materialize+replan and pipeline.  Results are keyed
    ``(query, strategy)``."""
    deployment = build_deployment(
        FIG5_SCALE_MB,
        ["region", "nation", "supplier", "customer", "part", "partsupp", "orders"],
        seed=42,
    )
    queries = figure5_queries()
    results = {}
    for strategy in FIG5_STRATEGIES:
        for query in queries:
            driver = InterleavedExecutionDriver(
                deployment.catalog,
                Optimizer(
                    deployment.catalog, OptimizerConfig(memory_pool_bytes=FIG5_MEMORY_POOL_BYTES)
                ),
                engine_config=FIG5_ENGINE_CONFIG,
            )
            named = dataclasses.replace(query, name=f"{query.name}_{strategy.value}")
            reformulated = Reformulator(deployment.catalog).reformulate(named)
            results[(query.name, strategy.value)] = driver.run(reformulated, strategy=strategy)
    replan_key = PlanningStrategy.MATERIALIZE_REPLAN.value
    rows = [
        [
            query.name,
            *(round(results[(query.name, s.value)].total_time_ms, 1) for s in FIG5_STRATEGIES),
            results[(query.name, replan_key)].reoptimizations,
        ]
        for query in sorted(queries, key=lambda query: query.name)
    ]
    totals = fig5_totals(results)
    replan_total = totals[replan_key]
    notes = [
        f"total: materialize={totals['materialize']:.0f}  "
        f"materialize+replan={replan_total:.0f}  pipeline={totals['pipeline']:.0f}",
        f"speedup of materialize+replan: "
        f"{speedup(totals['pipeline'], replan_total):.2f}x over pipeline, "
        f"{speedup(totals['materialize'], replan_total):.2f}x over materialize "
        f"(paper: 1.42x and 1.69x)",
    ]
    return Figure(
        results,
        "Figure 5 — per-query completion time by strategy (virtual ms)",
        ["query", "materialize", "materialize+replan", "pipeline", "replans"],
        rows,
        notes,
    )


# -- Section 6.5 -------------------------------------------------------------------------

SEC65_SCALE_MB = 1.0

#: (query size, relations, completed fragment): the fragment's relations are
#: the subquery whose actual cardinality triggers re-optimization.
SEC65_CASES = [
    (4, ["region", "nation", "supplier", "customer"], ["region", "nation"]),
    (5, ["region", "nation", "supplier", "customer", "orders"], ["nation", "supplier"]),
    (6, ["region", "nation", "supplier", "customer", "orders", "partsupp"], ["nation", "supplier"]),
    (
        7,
        ["region", "nation", "supplier", "customer", "orders", "partsupp", "part"],
        ["part", "partsupp"],
    ),
]

SEC65_MODES = ("saved_state", "saved_state_no_pointers", "scratch")


def sec65() -> Figure:
    """Section 6.5: dynamic-program nodes one re-optimization visits when it
    reuses the saved search space with usage pointers, reuses it without
    them, or replans from scratch.  Results are keyed ``(size, mode)``."""
    deployment = build_deployment(
        SEC65_SCALE_MB,
        ["region", "nation", "supplier", "customer", "part", "partsupp", "orders"],
        seed=42,
    )
    graph = TPCDJoinGraph()
    enumerator = JoinEnumerator(CostModel(deployment.catalog))
    results = {}
    for size, relations, covered_relations in SEC65_CASES:
        query = graph.query_for(frozenset(relations), name=f"s65_{size}")
        sources = {relation: relation for relation in relations}
        covered = frozenset(covered_relations)
        for mode in SEC65_MODES:
            state = enumerator.enumerate(query, sources)
            before = state.nodes_visited
            if mode == "scratch":
                fresh = enumerator.replan_from_scratch(state, covered, "done", 40, sources)
                results[(size, mode)] = fresh.nodes_visited
            else:
                enumerator.reoptimize_with_saved_state(
                    state, covered, "done", 40, use_usage_pointers=(mode == "saved_state")
                )
                results[(size, mode)] = state.nodes_visited - before
    rows = [
        [
            size,
            *(results[(size, mode)] for mode in SEC65_MODES),
            round(speedup(results[(size, "scratch")], results[(size, "saved_state")]), 2),
        ]
        for size, _, _ in SEC65_CASES
    ]
    return Figure(
        results,
        "Section 6.5 — re-optimization work (DP nodes visited) by approach",
        ["relations", "saved state", "saved, no pointers", "scratch", "node speedup vs scratch"],
        rows,
        [
            "(paper: saved state with usage pointers up to 1.64x faster than scratch;",
            " saved state without usage pointers slower than scratch)",
        ],
    )


# -- Ablation A1: collector policies -----------------------------------------------------

CITATION_COUNT = 2_000

COLLECTOR_POLICIES = ["plain_union", "contact_all", "race_two", "primary_with_fallback"]

COLLECTOR_SOURCES = ("dblp", "dblp-mirror", "dblp-partial")


def _citation_catalog(primary_dead: bool) -> DataSourceCatalog:
    """A primary bibliography, a full wide-area mirror and a 70 % LAN mirror."""
    schema = Schema.of("key:int", "title:str", "venue:str")
    citations = Relation.from_values(
        "citation",
        schema,
        [(i, f"paper-{i}", f"venue-{i % 40}") for i in range(CITATION_COUNT)],
    )
    catalog = DataSourceCatalog()
    primary = DataSource("dblp", citations, dead() if primary_dead else lan())
    catalog.register_source(primary)
    catalog.register_source(make_mirror(primary, "dblp-mirror", wide_area()))
    catalog.register_source(make_mirror(primary, "dblp-partial", lan(), coverage=0.7, seed=7))
    catalog.overlap.set_mirrors("dblp", "dblp-mirror")
    catalog.overlap.set_overlap("dblp", "dblp-partial", 0.7)
    return catalog


def _collector_spec(policy: str):
    children = [
        wrapper_scan("dblp", operator_id="scan_dblp"),
        wrapper_scan("dblp-mirror", operator_id="scan_mirror"),
        wrapper_scan("dblp-partial", operator_id="scan_partial"),
    ]
    if policy == "plain_union":
        return union_(children)
    spec = collector(children, operator_id="coll", policy_name=policy)
    spec.params["dedup_keys"] = ["citation.key"]
    if policy == "primary_with_fallback":
        spec.params["initially_active"] = ["scan_dblp"]
    elif policy == "race_two":
        spec.params["initially_active"] = ["scan_dblp", "scan_mirror"]
    return spec  # contact_all keeps the default (all children active)


def _run_policy(policy: str, primary_dead: bool) -> dict:
    """One policy's run as a one-fragment plan; a run that fails (a plain
    union cannot outlive a dead child) reports no result and the virtual
    time at which it failed."""
    catalog = _citation_catalog(primary_dead)
    context = ExecutionContext(
        catalog, config=EngineConfig(default_timeout_ms=2_000.0), query_name=policy
    )
    plan = QueryPlan(policy, [Fragment(policy, _collector_spec(policy), policy)])
    outcome = QueryExecutor(context).execute(plan)
    answer = outcome.answer if outcome.completed else None
    return {
        "distinct": len({values[0] for values in answer.multiset()}) if answer else 0,
        "sources_contacted": sum(
            1 for name in COLLECTOR_SOURCES if catalog.source(name).stats.connections_opened
        ),
        "completion_ms": context.clock.now,
    }


def collector_ablation() -> Figure:
    """Ablation A1 (§4.1's design choice, not a paper figure): a policy-driven
    collector against a plain union over a primary, a full mirror and a
    partial mirror, with the primary healthy and dead.  Results are keyed
    ``(primary_dead, policy)``."""
    results = {
        (primary_dead, policy): _run_policy(policy, primary_dead)
        for primary_dead in (False, True)
        for policy in COLLECTOR_POLICIES
    }
    rows = [
        [
            "dead" if primary_dead else "healthy",
            policy,
            entry["distinct"],
            entry["sources_contacted"],
            round(entry["completion_ms"], 1),
        ]
        for (primary_dead, policy), entry in results.items()
    ]
    return Figure(
        results,
        "Ablation A1 — collector policies over overlapping bibliography sources",
        ["primary", "policy", "distinct results", "sources contacted", "completion (ms)"],
        rows,
    )


# -- Ablation A2: event/rule machinery ---------------------------------------------------

RULES_SCALE_MB = 1.5

#: Inert rules per run: each watches ``threshold(scan_orders)``.
RULE_COUNTS = (0, 50, 500)

#: The inert probe rules' bound: ``threshold(scan_orders)`` with a count at
#: least this fires them, and no deployment here holds that many orders.
PROBE_BOUND = 10**9


def _run_inert_rules(deployment, rule_count: int) -> dict:
    """``orders ⋈ customer`` with ``rule_count`` rules that never fire."""
    root = join(
        wrapper_scan("orders", operator_id="scan_orders"),
        wrapper_scan("customer", operator_id="scan_customer"),
        ["orders.o_custkey"],
        ["customer.c_custkey"],
        operator_id="join_oc",
    )
    rules = [
        Rule(
            name=f"probe-{i}",
            owner="frag_oc",
            event_type=EventType.THRESHOLD,
            subject="scan_orders",
            condition=Compare(event_value(), ">=", constant(PROBE_BOUND)),
            actions=[replan()],
        )
        for i in range(rule_count)
    ]
    plan = QueryPlan(
        query_name=f"overhead_{rule_count}",
        fragments=[Fragment(fragment_id="frag_oc", root=root, result_name="oc_result")],
        global_rules=rules,
    )
    context = ExecutionContext(deployment.catalog, query_name=plan.query_name)
    executor = QueryExecutor(context)
    outcome = executor.execute(plan)
    handler = executor.event_handler
    return {
        "completed": outcome.completed,
        "events": context.events.total_enqueued,
        "processed": handler.events_processed,
        "fired": handler.rules_fired,
        "actions": handler.actions_executed,
        "virtual_ms": context.clock.now,
        "cardinality": outcome.answer.cardinality if outcome.answer else 0,
    }


def _run_rescheduling(deployment, enable_rescheduling: bool):
    """``supplier ⋈ nation ⋈ customer`` while supplier stalls for 4 s."""
    deployment.set_all_profiles(lan())
    deployment.set_profile("supplier", slow_start(delay_ms=4_000.0))
    query = TPCDJoinGraph().query_for(
        frozenset({"supplier", "nation", "customer"}),
        name=f"scramble_{'on' if enable_rescheduling else 'off'}",
    )
    driver = InterleavedExecutionDriver(
        deployment.catalog,
        Optimizer(deployment.catalog, OptimizerConfig(reschedule_on_timeout=enable_rescheduling)),
        engine_config=EngineConfig(default_timeout_ms=1_500.0),
    )
    reformulated = Reformulator(deployment.catalog).reformulate(query)
    result = driver.run(reformulated, strategy=PlanningStrategy.MATERIALIZE)
    deployment.set_all_profiles(lan())
    return result


def rules_ablation() -> Figure:
    """Ablation A2 (not a paper figure): (a) what inert rules cost the event
    machinery, and (b) what §3.1.2's reschedule-on-timeout rules buy when a
    source stalls.  Results: ``"overhead"``, one dict per
    :data:`RULE_COUNTS` entry; ``"with_rescheduling"`` /
    ``"without_rescheduling"`` query results; and ``"orders"``, the watched
    scan's cardinality."""
    deployment = build_deployment(
        RULES_SCALE_MB, ["region", "nation", "supplier", "customer", "orders"], seed=42
    )
    results = {
        "overhead": [_run_inert_rules(deployment, count) for count in RULE_COUNTS],
        "with_rescheduling": _run_rescheduling(deployment, True),
        "without_rescheduling": _run_rescheduling(deployment, False),
        "orders": deployment.catalog.source("orders").cardinality,
    }
    rows = [
        [
            f"{count} inert rules",
            "completed" if entry["completed"] else "failed",
            entry["cardinality"],
            entry["events"],
            entry["processed"],
            entry["fired"],
            "-",
            round(entry["virtual_ms"], 1),
        ]
        for count, entry in zip(RULE_COUNTS, results["overhead"])
    ]
    for label in ("with_rescheduling", "without_rescheduling"):
        result = results[label]
        rows.append(
            [
                label,
                result.status.value,
                result.cardinality,
                "-",
                "-",
                "-",
                result.reschedules,
                round(result.total_time_ms, 1),
            ]
        )
    return Figure(
        results,
        "Ablation A2 — inert rules on one join (a), rescheduling on a stalled source (b)",
        ["run", "status", "tuples", "events enqueued", "processed", "rules fired",
         "reschedules", "completion (ms)"],
        rows,
    )


FIGURES = (fig3a, fig3b, fig4, fig5, sec65, collector_ablation, rules_ablation)


def main() -> None:
    for experiment in FIGURES:
        print()
        print(experiment().render())


if __name__ == "__main__":
    main()
