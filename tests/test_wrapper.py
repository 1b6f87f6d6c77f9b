"""Unit tests for repro.network.wrapper."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SourceTimeoutError, SourceUnavailableError
from repro.network.profiles import NetworkProfile, bursty, dead, lan, slow_start, wide_area
from repro.network.simclock import SimClock
from repro.network.source import DataSource
from repro.network.wrapper import Wrapper

from helpers import ScriptedProfile, examples, make_relation


@pytest.fixture
def relation():
    return make_relation("t", ["k:int"], [(i,) for i in range(5)])


def make_wrapper(relation, profile=None, timeout_ms=None, clock=None):
    source = DataSource("src", relation, profile or lan())
    return Wrapper(source, clock or SimClock(), timeout_ms=timeout_ms)


class TestWrapperStreaming:
    def test_fetch_advances_clock_to_arrival(self, relation):
        clock = SimClock()
        wrapper = make_wrapper(relation, clock=clock)
        wrapper.open()
        columns, stamps = wrapper.fetch()  # a one-row span, as fetch_columns delivers
        assert columns == [[0]]
        assert clock.now >= lan().initial_latency_ms
        assert stamps == [clock.now]

    @pytest.mark.parametrize("path", ["fetch", "fetch_columns"])
    def test_stats_carry_the_virtual_stamps(self, relation, path):
        """Both fetch paths stamp the stats with the virtual arrivals they
        return, never with a wall clock."""
        clock = SimClock()
        wrapper = make_wrapper(relation, profile=wide_area(), clock=clock)
        wrapper.open()
        if path == "fetch":
            stamps = [stamp for _, (stamp,) in iter(wrapper.fetch, None)]
        else:
            _, stamps = wrapper.fetch_columns(5)
        assert len(stamps) == 5
        assert wrapper.stats.time_of_first_tuple == stamps[0]
        assert wrapper.stats.time_of_last_tuple == stamps[-1]

    def test_fetch_all_then_none(self, relation):
        wrapper = make_wrapper(relation)
        wrapper.open()
        rows = []
        while True:
            row = wrapper.fetch()
            if row is None:
                break
            rows.append(row)
        assert len(rows) == 5
        assert wrapper.exhausted
        assert wrapper.stats.tuples_fetched == 5
        assert wrapper.stats.time_of_first_tuple is not None

    def test_fetch_before_open_raises(self, relation):
        wrapper = make_wrapper(relation)
        with pytest.raises(SourceUnavailableError):
            wrapper.fetch()

    def test_schema_qualified(self, relation):
        wrapper = make_wrapper(relation)
        assert wrapper.schema.names == ("t.k",)

    def test_next_arrival_visible_without_consuming(self, relation):
        wrapper = make_wrapper(relation)
        wrapper.open()
        arrival = wrapper.next_arrival()
        assert arrival is not None
        assert wrapper.stats.tuples_fetched == 0

    def test_reset_allows_reopen(self, relation):
        wrapper = make_wrapper(relation)
        wrapper.open()
        wrapper.fetch()
        wrapper.close()
        assert not wrapper.is_open
        wrapper.open()
        assert wrapper.fetch() is not None


class TestWrapperTimeouts:
    def test_timeout_raised_for_slow_source(self, relation):
        wrapper = make_wrapper(relation, profile=slow_start(delay_ms=10_000.0), timeout_ms=100.0)
        wrapper.open()
        with pytest.raises(SourceTimeoutError):
            wrapper.fetch()
        assert wrapper.stats.timeouts == 1

    def test_timeout_advances_clock_by_timeout(self, relation):
        clock = SimClock()
        wrapper = make_wrapper(
            relation, profile=slow_start(delay_ms=10_000.0), timeout_ms=250.0, clock=clock
        )
        wrapper.open()
        with pytest.raises(SourceTimeoutError):
            wrapper.fetch()
        assert clock.now == pytest.approx(250.0)

    def test_dead_source_times_out(self, relation):
        wrapper = make_wrapper(relation, profile=dead(), timeout_ms=50.0)
        wrapper.open()
        with pytest.raises(SourceTimeoutError):
            wrapper.fetch()

    def test_no_timeout_when_disabled(self, relation):
        wrapper = make_wrapper(relation, profile=slow_start(delay_ms=2_000.0), timeout_ms=None)
        wrapper.open()
        assert wrapper.fetch() is not None

    def test_error_counted_for_failing_source(self, relation):
        profile = NetworkProfile(drop_after_tuples=1)
        wrapper = make_wrapper(relation, profile=profile)
        wrapper.open()
        wrapper.fetch()
        with pytest.raises(SourceUnavailableError):
            wrapper.fetch()
        assert wrapper.stats.errors == 1


def walk_cut(arrivals, start, stop, bound, limit):
    """Where a block over ``arrivals[start:stop]`` ends — the connection's
    original walk, kept verbatim: the oracle every cut must equal."""
    if bound is not None or limit is not None:
        for index in range(start, stop):
            arrival = arrivals[index]
            if bound is not None and arrival >= bound:
                stop = index
                break
            if limit is not None and arrival > limit:
                stop = index
                break
    return stop


def loop_stamps(arrivals, clock, cpu):
    """The wrapper's original per-tuple stamping loop, kept verbatim, charged
    to ``clock``: the oracle every block's stamps and clock must equal bit for bit."""
    now = clock.now
    wait_total = 0.0
    stamped = []
    append = stamped.append
    for arrival in arrivals:
        if arrival > now:
            wait_total += arrival - now
            now = arrival
        now += cpu
        append(now)
    clock.charge(wait_total, cpu * len(arrivals))
    return stamped


BLOCK_ROWS = 60
BLOCK_RELATION = make_relation(
    "t", ["k:int", "v:str"], [(i, f"v{i % 7}") for i in range(BLOCK_ROWS)]
)
#: Sorted timetables (lan, slow start, drop-after) are cut by bisection; the
#: jittered ones and the scripted one, which steps back once, are walked.
block_profiles = st.sampled_from(
    [
        lan(),
        wide_area(),
        bursty(burst_size=7, burst_gap_ms=40.0),
        slow_start(delay_ms=300.0),
        lan(drop_after_tuples=25),
        ScriptedProfile(
            name="steps-back",
            timetable=tuple(3.0 if i == 20 else 0.5 * i for i in range(BLOCK_ROWS)),
        ),
    ]
)
#: How a point sits against an arrival stamp.
NUDGES = {
    "before": lambda t: t - 0.25,
    "one ulp before": lambda t: math.nextafter(t, -math.inf),
    "on": lambda t: t,
    "after": lambda t: t + 0.25,
}
#: A point on the timetable: ``k`` tuples past the cursor (past the end means
#: after every arrival; the next few tuples are drawn often), nudged against
#: that tuple's stamp.
points = st.tuples(
    st.one_of(st.integers(0, 2), st.integers(0, BLOCK_ROWS + 2)),
    st.sampled_from(sorted(NUDGES)),
)
block_pulls = st.tuples(
    st.one_of(st.none(), points),  # where the clock is moved before the pull
    st.integers(0, BLOCK_ROWS + 10),  # max_rows
    st.one_of(st.none(), points),  # the arrival bound
    st.sampled_from([None, 0.0, 1.0, 40.0, 60_000.0]),  # the timeout
)


class TestBlockPathExactness:
    @given(
        profile=block_profiles,
        start_row=st.integers(0, BLOCK_ROWS + 5),
        open_at=st.sampled_from([0.0, 3.25, 1000.0]),
        cpu=st.sampled_from([0.002, 0.37]),
        pulls=st.lists(block_pulls, min_size=1, max_size=6),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_blocks_equal_the_walk_and_the_stamping_loop(
        self, profile, start_row, open_at, cpu, pulls
    ):
        source = DataSource("src", BLOCK_RELATION, profile)
        clock = SimClock(start_ms=open_at)
        wrapper = Wrapper(source, clock, per_tuple_cpu_ms=cpu)
        wrapper.open(start_row)
        connection = wrapper._connection
        arrivals = connection._arrivals
        assert connection.arrivals_sorted == all(a <= b for a, b in zip(arrivals, arrivals[1:]))
        fail_at = connection._fail_at_index
        rows = [row.values for row in BLOCK_RELATION.rows]

        def at(point):
            k, nudge = point
            index = connection._cursor + k
            if index < len(arrivals):
                return NUDGES[nudge](arrivals[index])
            return max(arrivals, default=0.0) + 1.0

        for move, max_rows, bound_at, timeout in pulls:
            if move is not None:
                clock.advance_to(at(move))
            bound = None if bound_at is None else at(bound_at)
            wrapper.timeout_ms = timeout
            start = connection._cursor
            stop = min(len(arrivals), start + max_rows)
            if fail_at is not None:
                stop = min(stop, fail_at)
            limit = None if timeout is None else clock.now + timeout
            stop = walk_cut(arrivals, start, stop, bound, limit)
            reference = SimClock(start_ms=clock.now)
            reference.stats = replace(clock.stats)

            block = wrapper.fetch_columns(max_rows, bound)

            if max_rows <= 0 or stop <= start:
                assert block is None
                assert connection._cursor == start
            else:
                columns, stamps = block
                assert connection._cursor == stop
                base = connection.base_row
                assert [list(column) for column in columns] == [
                    list(values) for values in zip(*rows[base + start : base + stop])
                ]
                expected = loop_stamps(arrivals[start:stop], reference, cpu)
                assert list(map(float.hex, stamps)) == list(map(float.hex, expected))
                assert wrapper.stats.time_of_last_tuple == expected[-1]
            assert clock.now.hex() == reference.now.hex()
            assert clock.stats == reference.stats
