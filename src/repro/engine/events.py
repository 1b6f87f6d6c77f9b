"""The event queue.

The execution system may generate an event at any time; events are fed into a
queue which imposes an ordering on rule evaluation (Section 3.3).  The queue
is FIFO; all actions of a fired rule run before the next event is dequeued.
"""

from __future__ import annotations

from collections import deque

from repro.plan.rules import Event, EventType


class EventQueue:
    """FIFO queue of runtime events with simple accounting."""

    def __init__(self) -> None:
        self._queue: deque[Event] = deque()
        self.total_enqueued = 0

    def push(self, event: Event) -> None:
        """Enqueue an event."""
        self._queue.append(event)
        self.total_enqueued += 1

    def emit(self, event_type: EventType, subject: str, value=None, at_time: float = 0.0) -> Event:
        """Build and enqueue an event, returning it."""
        event = Event(event_type, subject, value, at_time)
        self.push(event)
        return event

    def pop(self) -> Event | None:
        """Dequeue the next event, or ``None`` when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
