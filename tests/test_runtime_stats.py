"""Unit tests for repro.engine.stats (runtime statistics containers)."""


from repro.engine.stats import (
    FragmentStats,
    OperatorRuntimeStats,
    QueryRuntimeStats,
    TupleTimeline,
)


class TestOperatorRuntimeStats:
    def test_record_output_tracks_first_and_last(self):
        stats = OperatorRuntimeStats("op1")
        stats.record_output_batch(1, 10.0)
        stats.record_output_batch(3, 25.0)
        stats.record_output_batch(0, 30.0)
        assert stats.tuples_produced == 4
        assert stats.time_of_first_output == 10.0
        assert stats.time_of_last_output == 25.0

    def test_initial_state(self):
        stats = OperatorRuntimeStats("op1")
        assert stats.state == "pending"
        assert stats.time_of_first_output is None


class TestQueryRuntimeStats:
    def test_operator_record_created_on_demand(self):
        stats = QueryRuntimeStats("q")
        record = stats.operator("join1")
        assert record.operator_id == "join1"
        assert stats.operator("join1") is record

    def test_observed_cardinalities(self):
        stats = QueryRuntimeStats("q")
        stats.fragment_stats.append(
            FragmentStats("f1", "r1", 42, 10, 0.0, 5.0)
        )
        stats.fragment_stats.append(
            FragmentStats("f2", "r2", 7, None, 5.0, 9.0)
        )
        assert stats.observed_cardinalities() == {"r1": 42, "r2": 7}

    def test_time_to_first_tuple_from_output_timeline(self):
        stats = QueryRuntimeStats("q")
        assert stats.time_to_first_tuple is None
        stats.output_timeline.record(12.0, 1)
        assert stats.time_to_first_tuple == 12.0


class TestTupleTimelineEdgeCases:
    def test_empty_timeline(self):
        timeline = TupleTimeline()
        assert timeline.total == 0
        assert timeline.time_to_first is None
        assert timeline.completion_time is None

    def test_time_to_first_skips_zero_counts(self):
        timeline = TupleTimeline()
        timeline.record(1.0, 0)
        timeline.record(5.0, 1)
        assert timeline.time_to_first == 5.0
