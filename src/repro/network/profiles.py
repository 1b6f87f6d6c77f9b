"""Network profiles: arrival-timing models for simulated data sources.

A :class:`NetworkProfile` captures everything that determines *when* tuples
from a source become available to the execution engine: connection setup
latency, sustained bandwidth, burstiness, jitter, and failure behaviour.
Canned profiles mirror the two environments used in the paper's evaluation:

* :func:`lan` — the 10 Mbps Ethernet between the DB2 server and the engine.
* :func:`wide_area` — the trans-Atlantic echo-server link the authors measured
  at roughly 82.1 KB/s bandwidth and 145 ms round-trip time.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace
from itertools import accumulate, islice
from typing import Sequence


@dataclass(frozen=True)
class NetworkProfile:
    """Timing and reliability model for one source connection.

    Parameters
    ----------
    name:
        Human-readable label used in reports.
    initial_latency_ms:
        Delay between opening the connection and the first byte arriving
        (connection setup + query startup at the source).
    bandwidth_kbps:
        Sustained transfer rate in kilobytes per second.
    burst_size:
        Tuples delivered back-to-back once a burst begins; ``0`` disables
        burst modelling (smooth arrivals at the bandwidth rate).
    burst_gap_ms:
        Idle time between bursts.
    jitter_ms:
        Uniform random jitter added to each tuple's arrival (seeded).
    drop_after_tuples:
        If set, the source fails (raises) after sending this many tuples.
    unavailable:
        If true, the source never responds (used for timeout experiments).
    seed:
        Seed for the jitter generator, so arrival schedules are reproducible.
    """

    name: str = "default"
    initial_latency_ms: float = 5.0
    bandwidth_kbps: float = 1250.0
    burst_size: int = 0
    burst_gap_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_after_tuples: int | None = None
    unavailable: bool = False
    seed: int = 0

    def transfer_ms(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through the link at the sustained rate."""
        if self.bandwidth_kbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_kbps}")
        return nbytes / (self.bandwidth_kbps * 1024.0 / 1000.0)

    def with_overrides(self, **kwargs) -> "NetworkProfile":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    def stream_steps(
        self, tuple_sizes: Sequence[int]
    ) -> tuple[list[float], list[float] | None]:
        """``(clock steps, jitter draws)`` of a stream — what no open can change.

        One transfer time per tuple, the idle gap interleaved as its own step
        after every full burst; then the seeded per-tuple jitter (``None``
        without).  The bandwidth is validated here, once per stream.
        """
        if self.bandwidth_kbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_kbps}")
        rate = self.bandwidth_kbps * 1024.0 / 1000.0
        steps = [size / rate for size in tuple_sizes]
        count, burst = len(steps), self.burst_size
        if burst > 0:
            spaced = [self.burst_gap_ms] * (count + count // burst)
            for offset in range(burst):
                spaced[offset :: burst + 1] = steps[offset::burst]
            steps = spaced
        if self.jitter_ms <= 0:
            return steps, None
        rng = random.Random(self.seed)
        return steps, [rng.uniform(0.0, self.jitter_ms) for _ in range(count)]

    def lay_out(
        self, steps: Sequence[float], jitter: Sequence[float] | None, count: int, start_ms: float
    ) -> list[float]:
        """Arrival stamps of a stream's first ``count`` tuples, opened at ``start_ms``.

        The clock is a running ``itertools.accumulate`` over :meth:`stream_steps`
        — sequential binary float additions, left to right, exactly a
        per-tuple ``clock += step`` loop; ``sum()`` (compensated since 3.12),
        ``math.fsum`` or ``n * step`` would round differently.
        """
        burst = self.burst_size
        taken = count + count // burst if burst > 0 else count
        clocks = list(
            accumulate(islice(steps, taken), initial=start_ms + self.initial_latency_ms)
        )
        if burst > 0:
            # A burst's last tuple arrives after its gap: drop the clock
            # between the two steps (offset by one for the initial entry).
            del clocks[burst :: burst + 1]
        del clocks[0]
        return clocks if jitter is None else list(map(operator.add, clocks, jitter))


def lan(**overrides) -> NetworkProfile:
    """10 Mbps LAN between wrapper and engine (the paper's local setup)."""
    profile = NetworkProfile(
        name="lan",
        initial_latency_ms=5.0,
        bandwidth_kbps=1250.0,  # 10 Mbps
        jitter_ms=0.0,
    )
    return profile.with_overrides(**overrides) if overrides else profile


def wide_area(**overrides) -> NetworkProfile:
    """Trans-Atlantic link: ~82.1 KB/s bandwidth, ~145 ms round trip."""
    profile = NetworkProfile(
        name="wide-area",
        initial_latency_ms=145.0,
        bandwidth_kbps=82.1,
        jitter_ms=10.0,
    )
    return profile.with_overrides(**overrides) if overrides else profile


def bursty(**overrides) -> NetworkProfile:
    """Bursty arrivals: batches separated by idle gaps (Section 1.1)."""
    profile = NetworkProfile(
        name="bursty",
        initial_latency_ms=250.0,
        bandwidth_kbps=400.0,
        burst_size=200,
        burst_gap_ms=400.0,
        jitter_ms=5.0,
    )
    return profile.with_overrides(**overrides) if overrides else profile


def slow_start(delay_ms: float = 5000.0, **overrides) -> NetworkProfile:
    """A source with a long initial delay before any data arrives."""
    profile = NetworkProfile(
        name="slow-start",
        initial_latency_ms=delay_ms,
        bandwidth_kbps=400.0,
    )
    return profile.with_overrides(**overrides) if overrides else profile


def dead(**overrides) -> NetworkProfile:
    """A source that never responds (triggers timeouts / rescheduling)."""
    profile = NetworkProfile(
        name="dead",
        initial_latency_ms=0.0,
        bandwidth_kbps=1.0,
        unavailable=True,
    )
    return profile.with_overrides(**overrides) if overrides else profile
