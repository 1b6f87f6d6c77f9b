"""Tests for the shared benchmark harness and reporting helpers."""

import hashlib

import pytest

from repro.bench.harness import build_deployment, run_operator_tree
from repro.bench.reporting import ascii_chart, format_table, speedup, timeline_series
from repro.engine.stats import TupleTimeline
from repro.network.profiles import wide_area
from repro.plan.physical import JoinImplementation, join, wrapper_scan


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(0.3, ["part", "partsupp"], seed=9)


class TestDeployment:
    def test_tables_and_sources_registered(self, deployment):
        assert set(deployment.database.names) == {"part", "partsupp"}
        assert "part" in deployment.catalog.source_names
        assert deployment.sources["part"].cardinality == deployment.database["part"].cardinality

    def test_set_profile(self, deployment):
        deployment.set_profile("part", wide_area())
        assert deployment.sources["part"].profile.name == "wide-area"
        deployment.set_all_profiles(wide_area())
        assert deployment.sources["partsupp"].profile.name == "wide-area"


#: ``(implementation, memory_limit_bytes) -> (cardinality, completion ms,
#: first-tuple ms, timeline digest, spilled tuples)`` for ``partsupp ⋈ part``
#: over the wide-area profile: the double pipelined join with ample memory,
#: and a hybrid hash join whose build overflows (Fig. 4's shape).  Exact
#: virtual times: the figure curves must not move when the harness does.
FIGURE_CURVES = {
    (JoinImplementation.DOUBLE_PIPELINED, None): (
        240, 288.4014661186467, 155.06391035447095, "60b209eeb08c5539", 0
    ),
    (JoinImplementation.HYBRID_HASH, 2500): (
        240, 289.76146611864675, 247.83391946651255, "76c596d5b52901f4", 260
    ),
}


def timeline_digest(timeline: TupleTimeline) -> str:
    points = list(zip(timeline.times_ms, timeline.counts))
    return hashlib.sha256(repr(points).encode()).hexdigest()[:16]


class TestRunOperatorTree:
    def test_runs_join_and_reports_timeline(self, deployment):
        deployment.set_all_profiles(wide_area())
        for (implementation, memory), curve in FIGURE_CURVES.items():
            spec = join(
                wrapper_scan("partsupp"),
                wrapper_scan("part"),
                ["partsupp.ps_partkey"],
                ["part.p_partkey"],
                implementation=implementation,
                memory_limit_bytes=memory,
            )
            result = run_operator_tree(spec, deployment.catalog, result_name="t")
            assert result.cardinality == deployment.database["partsupp"].cardinality
            assert result.time_to_first_tuple_ms is not None
            assert result.completion_time_ms >= result.time_to_first_tuple_ms
            assert result.timeline.total == result.cardinality
            assert result.relation.cardinality == result.cardinality
            assert (
                result.cardinality,
                result.completion_time_ms,
                result.time_to_first_tuple_ms,
                timeline_digest(result.timeline),
                result.context.disk.stats.tuples_written,
            ) == curve, implementation


class TestReporting:
    def test_timeline_series_monotone(self):
        timeline = TupleTimeline()
        for i in range(1, 101):
            timeline.record(float(i), i)
        series = timeline_series(timeline, points=10)
        assert series[-1].tuples == 100
        times = [p.time_ms for p in series]
        assert times == sorted(times)

    def test_timeline_series_empty(self):
        assert timeline_series(TupleTimeline()) == []

    def test_format_table_aligns_columns(self):
        text = format_table(["name", "time"], [["dpj", 1.234], ["hybrid", 10.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "dpj" in lines[2]
        assert "10.5" in lines[3]

    def test_speedup(self):
        assert speedup(200.0, 100.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_ascii_chart_renders_all_series(self):
        chart = ascii_chart(
            {"a": [(0.0, 0.0), (10.0, 5.0)], "b": [(10.0, 10.0)]},
            width=20,
            height=6,
        )
        lines = chart.splitlines()
        assert any("*" in line for line in lines)
        assert any("o" in line for line in lines)
        assert "a" in lines[-1] and "b" in lines[-1]
        assert "max 10" in chart

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"
        assert ascii_chart({"a": []}) == "(no data)"


class TestTupleTimeline:
    def test_time_for_count(self):
        timeline = TupleTimeline()
        timeline.record(10.0, 1)
        timeline.record(20.0, 2)
        timeline.record(30.0, 3)
        assert timeline.time_for_count(3) == 30.0
        assert timeline.time_for_count(4) is None
        assert timeline.time_to_first == 10.0
        assert timeline.completion_time == 30.0
