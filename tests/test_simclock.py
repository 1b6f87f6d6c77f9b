"""Unit tests for repro.network.simclock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simclock import SimClock

from helpers import examples


def test_advance_to_moves_forward_only():
    clock = SimClock()
    assert clock.advance_to(10.0) == 10.0
    assert clock.advance_to(5.0) == 10.0
    assert clock.now == 10.0
    assert clock.stats.wait_ms == 10.0


def test_consume_cpu_and_io_accumulate():
    clock = SimClock()
    clock.consume_cpu(2.0)
    clock.consume_io(3.0)
    assert clock.now == 5.0
    assert clock.stats.cpu_ms == 2.0
    assert clock.stats.io_ms == 3.0


def test_negative_durations_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.consume_cpu(-1.0)
    with pytest.raises(ValueError):
        clock.consume_io(-0.5)


def test_start_offset():
    clock = SimClock(start_ms=50.0)
    assert clock.now == 50.0
    clock.advance_to(60.0)
    assert clock.stats.wait_ms == 10.0


@given(
    start=st.floats(min_value=0.0, max_value=1e7),
    spent=st.floats(min_value=0.0, max_value=1e4),
    cpu=st.sampled_from([0.0, 0.001, 0.002, 0.3, 1 / 3]),
    count=st.integers(min_value=0, max_value=400),
    bound_after=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=150.0)),
)
@settings(max_examples=examples(200), deadline=None)
def test_consume_cpu_run_equals_the_per_call_loop(start, spent, cpu, count, bound_after):
    """Bit for bit: the stamps, the clock and the cpu_ms total of ``count``
    consume_cpu calls, each made only while the clock is before the bound."""
    bound = None if bound_after is None else start + bound_after
    bulk, loop = SimClock(start), SimClock(start)
    bulk.stats.cpu_ms = loop.stats.cpu_ms = spent
    expected = []
    for _ in range(count):
        if bound is not None and loop.now >= bound:
            break
        expected.append(loop.consume_cpu(cpu))
    assert bulk.consume_cpu_run(cpu, count, bound) == expected
    assert (bulk.now, bulk.stats.cpu_ms) == (loop.now, loop.stats.cpu_ms)
    with pytest.raises(ValueError):
        bulk.consume_cpu_run(-1.0, 3)
