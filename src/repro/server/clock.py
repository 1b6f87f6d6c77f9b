"""The shared server timeline and per-session clock views.

One :class:`ServerClock` owns the virtual timeline of a whole
:class:`~repro.server.scheduler.QueryServer`.  Each admitted session gets a
:class:`SessionClock` — a full :class:`~repro.network.simclock.SimClock`
(operators, wrappers and disks use it exactly as in single-query mode) whose
time is an *absolute position on the server timeline*: sessions are admitted
at the server's causal frontier and advance independently from there, so one
session's network waits occupy a span of server time that another session's
CPU work can overlap.

Two derived times matter:

* the **frontier** — the minimum ``now`` across unfinished sessions.  The
  cooperative scheduler always runs the frontier session, which makes shared
  state (the cross-session source cache, broker revocations, connection
  slots) causal: anything already published was published at a virtual time
  no later than the frontier.
* the **completion** — the maximum ``now`` across all sessions, the server's
  makespan (the "total virtual wall clock" the throughput benchmark
  compares against serial back-to-back execution).
"""

from __future__ import annotations

from repro.network.simclock import SimClock


class SessionClock(SimClock):
    """One session's view of the server timeline.

    Behaviourally a plain :class:`SimClock` (all charge semantics are
    inherited unchanged — drive-mode parity inside a session is untouched);
    the subclass only pins the session's identity and its server, so the
    session can leave the shared timeline when it finishes.
    """

    def __init__(self, server: "ServerClock", session_id: str, start_ms: float) -> None:
        super().__init__(start_ms)
        self.server = server
        self.session_id = session_id


class ServerClock:
    """Registry of session clocks forming one virtual timeline."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._start_ms = float(start_ms)
        self._clocks: dict[str, SessionClock] = {}
        self._active: set[str] = set()

    def session_clock(self, session_id: str, start_ms: float | None = None) -> SessionClock:
        """Admit a session: a fresh clock starting at the causal frontier.

        ``start_ms`` (e.g. a staggered arrival time) may push admission past
        the frontier but never before it — a session cannot start in the
        server's past.
        """
        if session_id in self._clocks:
            raise ValueError(f"session {session_id!r} already has a clock")
        admit_at = self.frontier
        if start_ms is not None and start_ms > admit_at:
            admit_at = float(start_ms)
        clock = SessionClock(self, session_id, admit_at)
        self._clocks[session_id] = clock
        self._active.add(session_id)
        return clock

    def lane_clock(self, owner_id: str, label: str, start_ms: float) -> SessionClock:
        """Admit an intra-query worker lane at exactly ``start_ms``.

        Exchange lanes and producer drivers are full timeline members — they
        constrain the frontier until :meth:`finish` and count toward the
        makespan — but unlike sessions they are *not* clamped to the
        frontier: a lane starts at its owner's current time, which is
        already at or past the frontier because the owner is itself an
        unfinished timeline member.  Repeated ids (an operator tree rebuilt
        inside one session, e.g. benchmark repetitions) get a ``~n`` suffix
        rather than an error; lane identity never affects results.
        """
        lane_id = f"{owner_id}/{label}"
        if lane_id in self._clocks:
            n = 2
            while f"{lane_id}~{n}" in self._clocks:
                n += 1
            lane_id = f"{lane_id}~{n}"
        clock = SessionClock(self, lane_id, float(start_ms))
        self._clocks[lane_id] = clock
        self._active.add(lane_id)
        return clock

    def finish(self, session_id: str) -> None:
        """Mark a session complete; its clock stops constraining the frontier."""
        self._active.discard(session_id)

    @property
    def frontier(self) -> float:
        """Earliest unfinished-session time — the server's causal 'now'."""
        if self._active:
            return min(self._clocks[sid].now for sid in self._active)
        if self._clocks:
            return max(clock.now for clock in self._clocks.values())
        return self._start_ms

    @property
    def completion_ms(self) -> float:
        """Latest session time — the server's makespan so far."""
        if not self._clocks:
            return self._start_ms
        return max(clock.now for clock in self._clocks.values())

    @property
    def session_clocks(self) -> dict[str, SessionClock]:
        return dict(self._clocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerClock(frontier={self.frontier:.2f}ms, "
            f"completion={self.completion_ms:.2f}ms, sessions={len(self._clocks)})"
        )
