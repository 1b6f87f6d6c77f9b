"""Unit tests for repro.network.source."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SourceUnavailableError
from repro.network.profiles import NetworkProfile, bursty, dead, lan, wide_area
from repro.network.source import DataSource, make_mirror

from helpers import arrival_schedule, column_values, examples, make_relation


@pytest.fixture
def relation():
    return make_relation("books", ["isbn:int", "title:str"], [(i, f"t{i}") for i in range(10)])


@pytest.fixture
def source(relation):
    return DataSource("lib", relation, lan())


class TestDataSource:
    def test_exported_schema_is_qualified(self, source):
        assert source.exported_schema.names == ("books.isbn", "books.title")

    def test_cardinality_and_size(self, source, relation):
        assert source.cardinality == len(relation) == 10

    def test_set_profile(self, source):
        source.set_profile(dead())
        assert source.profile.unavailable


class TestSourceConnection:
    def test_fetch_streams_all_tuples_in_order(self, source):
        connection = source.open()
        arrivals = []
        while not connection.exhausted:
            row, arrival = connection.fetch()
            arrivals.append(arrival)
        assert len(arrivals) == 10
        assert arrivals == sorted(arrivals)
        assert source.stats.tuples_sent == 10

    def test_next_arrival_matches_fetch(self, source):
        connection = source.open()
        expected = connection.next_arrival()
        _, arrival = connection.fetch()
        assert arrival == expected

    def test_fetch_after_exhaustion_raises(self, source):
        connection = source.open()
        for _ in range(10):
            connection.fetch()
        assert connection.next_arrival() is None
        with pytest.raises(SourceUnavailableError):
            connection.fetch()

    def test_open_at_offset_shifts_arrivals(self, source):
        early = source.open(at_ms=0.0).next_arrival()
        late = source.open(at_ms=1000.0).next_arrival()
        assert late == pytest.approx(early + 1000.0)

    def test_closed_connection_rejects_fetch(self, source):
        connection = source.open()
        connection.close()
        assert connection.closed
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert connection.next_arrival() is None

    def test_unavailable_source_never_arrives(self, relation):
        source = DataSource("dead", relation, dead())
        connection = source.open()
        assert connection.next_arrival() == float("inf")
        assert not connection.exhausted
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert source.stats.failures == 1

    def test_drop_after_tuples_fails_mid_transfer(self, relation):
        profile = NetworkProfile(drop_after_tuples=3)
        source = DataSource("flaky", relation, profile)
        connection = source.open()
        for _ in range(3):
            connection.fetch()
        with pytest.raises(SourceUnavailableError):
            connection.fetch()
        assert connection.fetch_span(10) is None


def reference_arrival_schedule(profile, tuple_sizes, start_ms=0.0):
    """The per-tuple timetable loop the source layer used to run on every open
    (kept verbatim): the oracle the C-level timetable must equal bit for bit."""
    rng = random.Random(profile.seed)
    arrivals = []
    clock = start_ms + profile.initial_latency_ms
    in_burst = 0
    for size in tuple_sizes:
        clock += profile.transfer_ms(size)
        if profile.burst_size > 0:
            in_burst += 1
            if in_burst >= profile.burst_size:
                clock += profile.burst_gap_ms
                in_burst = 0
        jitter = rng.uniform(0.0, profile.jitter_ms) if profile.jitter_ms > 0 else 0.0
        arrivals.append(clock + jitter)
    return arrivals


ms = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
profiles = st.builds(
    NetworkProfile,
    initial_latency_ms=st.floats(min_value=0.0, max_value=500.0),
    bandwidth_kbps=st.floats(min_value=0.5, max_value=5000.0),
    burst_size=st.integers(min_value=0, max_value=300),
    burst_gap_ms=st.floats(min_value=0.0, max_value=500.0),
    jitter_ms=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
    drop_after_tuples=st.one_of(st.none(), st.integers(min_value=0, max_value=2500)),
    seed=st.integers(min_value=0, max_value=2**16),
)
BIG = make_relation("t", ["k:int", "v:str", "w:float"], [(i, "x", 0.5) for i in range(2000)])


class TestTimetable:
    @given(
        profile=profiles,
        rows=st.integers(min_value=0, max_value=2000),
        start_ms=ms,
        start_row=st.integers(min_value=0, max_value=2100),
    )
    @settings(max_examples=examples(150), deadline=None)
    def test_equals_the_reference_loop(self, profile, rows, start_ms, start_row):
        relation = make_relation("t", ["k:int", "v:str", "w:float"], [])
        relation.extend(BIG.rows[:rows])
        source = DataSource("src", relation, profile)
        connection = source.open(at_ms=start_ms, start_row=start_row)
        sizes = [source.exported_schema.tuple_size] * max(0, rows - start_row)
        expected = reference_arrival_schedule(profile, sizes, start_ms)
        assert connection._arrivals == expected
        survivors = len(expected)
        if profile.drop_after_tuples is not None:
            survivors = min(survivors, max(0, profile.drop_after_tuples - start_row))
        span = connection.fetch_span(len(expected) + 1)
        assert (span[1] - span[0] if span else 0) == survivors
        # A second open, elsewhere on the clock, shares no mutable state.
        later = source.open(at_ms=start_ms + 250.0, start_row=start_row)
        assert later._arrivals is not connection._arrivals
        connection._arrivals.reverse()
        connection._arrivals.append(-1.0)
        assert later._arrivals == reference_arrival_schedule(profile, sizes, start_ms + 250.0)
        assert source.open(at_ms=start_ms, start_row=start_row)._arrivals == expected

    @given(profile=profiles, sizes=st.lists(st.integers(min_value=1, max_value=4000), max_size=300))
    @settings(max_examples=examples(100), deadline=None)
    def test_arrival_schedule_equals_the_reference_loop_for_mixed_sizes(self, profile, sizes):
        assert arrival_schedule(profile, sizes, 12.5) == reference_arrival_schedule(
            profile, sizes, 12.5
        )

    def test_non_positive_bandwidth_rejected_once_per_stream(self):
        with pytest.raises(ValueError):
            NetworkProfile(bandwidth_kbps=0.0).stream_steps([10, 10])

    @pytest.mark.parametrize("swapped", [wide_area(), bursty(), lan(initial_latency_ms=50.0)])
    def test_set_profile_moves_the_next_open_not_the_live_one(self, source, swapped):
        live = source.open(at_ms=10.0)
        before = list(live._arrivals)
        source.set_profile(swapped)
        size = source.exported_schema.tuple_size
        assert live._arrivals == before
        assert live.next_arrival() == before[0]
        assert source.open(at_ms=10.0)._arrivals == reference_arrival_schedule(
            swapped, [size] * 10, 10.0
        )
        source.set_profile(lan())
        assert source.open(at_ms=10.0)._arrivals == before

    def test_export_is_rebuilt_when_the_cardinality_changes(self, source, relation):
        assert len(source.open()._arrivals) == 10
        columns, _ = source.encoded_column_cache()
        assert len(columns[0]) == 10
        relation.extend([relation.rows[0], relation.rows[1]])
        assert len(source.open()._arrivals) == 12
        assert len(source.encoded_column_cache()[0][0]) == 12
        assert source.column_span(10, 12)[0] == source.column_span(0, 2)[0]

    def test_exported_schema_is_one_instance(self, source):
        assert source.exported_schema is source.exported_schema


class TestMakeMirror:
    def test_full_mirror_has_same_rows(self, source):
        mirror = make_mirror(source, "mirror", lan())
        assert mirror.cardinality == source.cardinality
        assert mirror.relation.name == source.relation.name

    def test_partial_mirror_subset(self, source):
        mirror = make_mirror(source, "partial", lan(), coverage=0.5, seed=3)
        assert 0 < mirror.cardinality <= source.cardinality
        source_keys = set(column_values(source.relation, "isbn"))
        assert set(column_values(mirror.relation, "isbn")) <= source_keys

    def test_partial_mirror_picks_the_same_rows_for_a_seed(self, source):
        # Pinned: one ``Random(seed).random()`` draw per source row, in order.
        mirror = make_mirror(source, "partial", lan(), coverage=0.6, seed=3)
        assert [row.values for row in mirror.relation.rows] == [
            (i, f"t{i}") for i in (0, 1, 2, 5, 6, 8, 9)
        ]

    def test_partial_mirror_deterministic(self, source):
        a = make_mirror(source, "m1", lan(), coverage=0.5, seed=3)
        b = make_mirror(source, "m2", lan(), coverage=0.5, seed=3)
        assert a.relation.multiset() == b.relation.multiset()

    def test_invalid_coverage_rejected(self, source):
        with pytest.raises(ValueError):
            make_mirror(source, "bad", lan(), coverage=0.0)
