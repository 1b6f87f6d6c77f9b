"""Integration tests: miniatures of what the paper's figures do not cover.

``tests/test_figures.py`` asserts the figures' shapes at their own scales;
these check, at a tiny scale, the cases no figure runs: the DPJ's symmetry
between a slow outer and a slow inner, a hybrid hash join behind a source
that stalls before its first tuple, and collector failover end to end
through the SQL front door.
"""

import pytest

from repro.bench.harness import build_deployment, run_operator_tree
from repro.core.system import Tukwila
from repro.catalog.source_desc import SourceDescription
from repro.engine.context import EngineConfig
from repro.network.profiles import lan, slow_start, wide_area
from repro.network.source import DataSource, make_mirror
from repro.plan.physical import JoinImplementation, join, wrapper_scan

from helpers import make_relation


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(0.6, ["part", "partsupp", "supplier", "orders"], seed=11)


def partsupp_part_spec(implementation):
    return join(
        wrapper_scan("partsupp"),
        wrapper_scan("part"),
        ["partsupp.ps_partkey"],
        ["part.p_partkey"],
        implementation=implementation,
    )


class TestFigure3Shape:
    """Double pipelined join vs hybrid hash, beyond Figure 3b's conditions."""

    def test_dpj_insensitive_to_which_input_is_slow(self, deployment):
        results = {}
        for label, slow_table in [("outer_slow", "partsupp"), ("inner_slow", "part")]:
            deployment.set_all_profiles(lan())
            deployment.set_profile(slow_table, wide_area())
            results[label] = run_operator_tree(
                partsupp_part_spec(JoinImplementation.DOUBLE_PIPELINED), deployment.catalog
            )
        deployment.set_all_profiles(lan())
        ratio = results["outer_slow"].completion_time_ms / results["inner_slow"].completion_time_ms
        assert 0.8 <= ratio <= 1.25  # symmetric: neither orientation matters

    def test_hybrid_hash_sensitive_to_slow_inner(self, deployment):
        deployment.set_all_profiles(lan())
        deployment.set_profile("part", slow_start(delay_ms=1_000.0))
        hybrid = run_operator_tree(
            partsupp_part_spec(JoinImplementation.HYBRID_HASH), deployment.catalog
        )
        dpj = run_operator_tree(
            partsupp_part_spec(JoinImplementation.DOUBLE_PIPELINED), deployment.catalog
        )
        deployment.set_all_profiles(lan())
        # The hybrid join cannot produce anything until the slow inner is loaded.
        assert hybrid.time_to_first_tuple_ms >= 1_000.0
        assert dpj.time_to_first_tuple_ms < hybrid.time_to_first_tuple_ms


class TestCollectorScenario:
    """Bibliographic mirror scenario exercised end to end through Tukwila."""

    def test_union_over_mirrors_with_failure(self):
        books = make_relation(
            "citation", ["key:int", "title:str"], [(i, f"paper-{i}") for i in range(30)]
        )
        reviews = make_relation(
            "rating", ["key:int", "stars:int"], [(i, i % 5 + 1) for i in range(30)]
        )
        system = Tukwila(engine_config=EngineConfig(default_timeout_ms=500.0))
        primary = DataSource("dblp", books, slow_start(delay_ms=10_000.0))
        system.register_source(primary, SourceDescription("dblp", "citation"))
        system.register_source(
            make_mirror(primary, "dblp-mirror", lan()),
            SourceDescription("dblp-mirror", "citation"),
        )
        system.declare_mirrors("dblp", "dblp-mirror")
        system.register_source(DataSource("ratings", reviews, lan()),
                               SourceDescription("ratings", "rating"))
        result = system.execute(
            "select * from citation, rating where citation.key = rating.key",
            name="bib",
        )
        assert result.succeeded
        assert result.cardinality == 30
