"""Virtual time.

All experiment timing in this reproduction runs against a :class:`SimClock`
rather than the wall clock.  Sources stamp tuples with arrival times computed
from their latency and bandwidth models; operators advance the clock when
they wait for data, burn CPU, or perform disk I/O.  This keeps every
benchmark deterministic and lets the harness report the tuples-vs-time curves
that the paper's figures plot.

A single query owns one :class:`SimClock`.  The multi-query server instead
hands each session a :class:`repro.server.clock.SessionClock` — a
``SimClock`` subclass registered with a shared
:class:`~repro.server.clock.ServerClock` — so every session's waits, CPU and
I/O land on one server timeline and the scheduler can pick whichever session
is furthest behind.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat


@dataclass
class ClockStats:
    """Breakdown of where virtual time went."""

    wait_ms: float = 0.0
    cpu_ms: float = 0.0
    io_ms: float = 0.0


class SimClock:
    """A monotonically advancing virtual clock measured in milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = float(start_ms)
        self.stats = ClockStats()

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance_to(self, time_ms: float) -> float:
        """Move the clock forward to ``time_ms`` (no-op if already past).

        The gap is accounted as waiting (for network data).  Returns the new
        current time.
        """
        if time_ms > self._now:
            self.stats.wait_ms += time_ms - self._now
            self._now = time_ms
        return self._now

    def consume_cpu(self, cpu_ms: float) -> float:
        """Burn ``cpu_ms`` of processing time."""
        if cpu_ms < 0:
            raise ValueError(f"cpu time must be non-negative, got {cpu_ms}")
        self._now += cpu_ms
        self.stats.cpu_ms += cpu_ms
        return self._now

    def consume_cpu_run(
        self, cpu_ms: float, count: int, bound: float | None = None
    ) -> list[float]:
        """Up to ``count`` back-to-back :meth:`consume_cpu` charges in bulk,
        stopping before the first that would start at or past ``bound``.

        Returns the clock after each charge.  Clock and ``cpu_ms`` total are
        each a running ``itertools.accumulate`` — the per-call loop's own
        sequential binary additions; ``count * cpu_ms``, ``sum()``
        (compensated since 3.12) or ``math.fsum`` would round differently.
        """
        if cpu_ms < 0:
            raise ValueError(f"cpu time must be non-negative, got {cpu_ms}")
        # stamps[i] is when charge i starts; stamps[i + 1] is when it ends.
        stamps = list(accumulate(repeat(cpu_ms, count), initial=self._now))
        if bound is not None:
            del stamps[bisect_left(stamps, bound, 0, count) + 1 :]
        self._now = stamps[-1]
        self.stats.cpu_ms = list(
            accumulate(repeat(cpu_ms, len(stamps) - 1), initial=self.stats.cpu_ms)
        )[-1]
        del stamps[0]
        return stamps

    def consume_io(self, io_ms: float) -> float:
        """Burn ``io_ms`` of disk I/O time."""
        if io_ms < 0:
            raise ValueError(f"io time must be non-negative, got {io_ms}")
        self._now += io_ms
        self.stats.io_ms += io_ms
        return self._now

    def consume_cpu_overlapped(self, cpu_ms: float, absorbable_wait_ms: float) -> float:
        """Charge CPU that overlapped network waiting (pipelined execution).

        Tuple-at-a-time operators charge CPU *between* arrival waits, so the
        cost hides inside the next wait whenever data is the bottleneck.  A
        batch operator charges after its whole batch has streamed in; to keep
        the two accountings equivalent, up to ``absorbable_wait_ms`` of the
        charge (the waiting that accrued while this batch was produced) is
        reclassified from waiting to CPU, and only the excess extends virtual
        time.
        """
        if cpu_ms < 0:
            raise ValueError(f"cpu time must be non-negative, got {cpu_ms}")
        overlap = min(cpu_ms, absorbable_wait_ms, self.stats.wait_ms)
        if overlap > 0:
            self.stats.wait_ms -= overlap
            self.stats.cpu_ms += overlap
        excess = cpu_ms - overlap
        if excess > 0:
            self._now += excess
            self.stats.cpu_ms += excess
        return self._now

    def consume_io_overlapped(self, io_ms: float, absorbable_wait_ms: float) -> float:
        """IO counterpart of :meth:`consume_cpu_overlapped`."""
        if io_ms < 0:
            raise ValueError(f"io time must be non-negative, got {io_ms}")
        overlap = min(io_ms, absorbable_wait_ms, self.stats.wait_ms)
        if overlap > 0:
            self.stats.wait_ms -= overlap
            self.stats.io_ms += overlap
        excess = io_ms - overlap
        if excess > 0:
            self._now += excess
            self.stats.io_ms += excess
        return self._now

    def charge(self, wait_ms: float, cpu_ms: float, io_ms: float = 0.0) -> float:
        """Apply a pre-aggregated batch of waiting/CPU/IO time in one call.

        Equivalent to the corresponding sequence of :meth:`advance_to` /
        :meth:`consume_cpu` / :meth:`consume_io` calls; batch operators use it
        to charge a whole block of tuples at once.
        """
        if wait_ms < 0 or cpu_ms < 0 or io_ms < 0:
            raise ValueError(
                f"charges must be non-negative, got wait={wait_ms} cpu={cpu_ms} io={io_ms}"
            )
        self._now += wait_ms + cpu_ms + io_ms
        self.stats.wait_ms += wait_ms
        self.stats.cpu_ms += cpu_ms
        self.stats.io_ms += io_ms
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.2f}ms)"
