"""Ablation A1 — dynamic collector policies over overlapping sources.

Not a paper figure: this ablation quantifies the design choice the paper
motivates in Section 4.1 — a policy-driven collector vs a plain union — on a
bibliographic-style workload with a primary source, a full mirror, and a
partial mirror, under (a) healthy sources and (b) a dead primary.

Reported for each policy: completion time, number of sources contacted, and
result completeness.  The expected shape: *contact-all* always reads every
mirror (wasted work when sources are healthy); *primary-with-fallback*
contacts one source when healthy and recovers via the mirror when the
primary is dead; a plain union with no policy cannot recover at all.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.builder import build_operator
from repro.engine.iterators import DEFAULT_BATCH_SIZE
from repro.network.profiles import dead, lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row
from repro.plan.physical import collector, union_, wrapper_scan

from bench_support import run_once

CITATION_COUNT = 2_000


def build_catalog(primary_dead: bool) -> DataSourceCatalog:
    schema = Schema.of("key:int", "title:str", "venue:str")
    rows = [Row(schema, (i, f"paper-{i}", f"venue-{i % 40}")) for i in range(CITATION_COUNT)]
    citations = Relation("citation", schema, rows)
    catalog = DataSourceCatalog()
    primary = DataSource("dblp", citations, dead() if primary_dead else lan())
    catalog.register_source(primary)
    catalog.register_source(make_mirror(primary, "dblp-mirror", wide_area()))
    catalog.register_source(
        make_mirror(primary, "dblp-partial", lan(), coverage=0.7, seed=7)
    )
    catalog.overlap.set_mirrors("dblp", "dblp-mirror")
    catalog.overlap.set_overlap("dblp", "dblp-partial", 0.7)
    return catalog


def collector_spec(policy: str):
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


def run_policy(policy: str, primary_dead: bool):
    catalog = build_catalog(primary_dead)
    context = ExecutionContext(
        catalog, config=EngineConfig(default_timeout_ms=2_000.0), query_name=policy
    )
    root = build_operator(collector_spec(policy), context)
    root.open()
    produced = 0
    distinct = set()
    failed_with = None
    try:
        while batch := root.next_batch(DEFAULT_BATCH_SIZE):
            produced += len(batch)
            distinct.update(row["key"] for row in batch)
    except Exception as exc:
        # A plain union with a dead child cannot finish; report the partial
        # results together with what cut the run short.
        failed_with = type(exc).__name__
    root.close()
    contacted = sum(
        1
        for name in ("dblp", "dblp-mirror", "dblp-partial")
        if catalog.source(name).stats.connections_opened > 0
    )
    return {
        "policy": policy,
        "primary_dead": primary_dead,
        "tuples": produced,
        "distinct": len(distinct),
        "sources_contacted": contacted,
        "completion_ms": context.clock.now,
        "failed_with": failed_with,
    }


POLICIES = ["plain_union", "contact_all", "race_two", "primary_with_fallback"]


def run_ablation():
    results = []
    for primary_dead in (False, True):
        for policy in POLICIES:
            results.append(run_policy(policy, primary_dead))
    return results


def print_ablation(results) -> None:
    rows = [
        [
            "dead" if entry["primary_dead"] else "healthy",
            entry["policy"],
            entry["distinct"],
            entry["sources_contacted"],
            round(entry["completion_ms"], 1),
        ]
        for entry in results
    ]
    print()
    print("Ablation A1 — collector policies over overlapping bibliography sources")
    print(
        format_table(
            ["primary", "policy", "distinct results", "sources contacted", "completion (ms)"],
            rows,
        )
    )


def test_collector_policy_ablation(benchmark):
    results = run_once(benchmark, run_ablation)
    print_ablation(results)
    by_key = {(entry["primary_dead"], entry["policy"]): entry for entry in results}

    healthy_fallback = by_key[(False, "primary_with_fallback")]
    healthy_all = by_key[(False, "contact_all")]
    dead_fallback = by_key[(True, "primary_with_fallback")]
    dead_union = by_key[(True, "plain_union")]

    # Healthy sources: the fallback policy touches only the primary but still
    # returns the complete result; contact-all touches every mirror.
    assert healthy_fallback.get("distinct") == CITATION_COUNT
    assert healthy_fallback["sources_contacted"] == 1
    assert healthy_all["sources_contacted"] == 3

    # Dead primary: the collector recovers the full result through the mirror;
    # a plain union has no recovery mechanism.
    assert dead_fallback["distinct"] == CITATION_COUNT
    assert dead_union["distinct"] < CITATION_COUNT

    # The race policy completes no later than contacting everything.
    assert by_key[(False, "race_two")]["completion_ms"] <= healthy_all["completion_ms"] * 1.05
