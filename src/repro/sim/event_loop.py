"""The discrete-event loop at the heart of the simulation.

Design points:

- Events are ``(time, sequence, callback)`` triples in a binary heap; the
  sequence number breaks timestamp ties by insertion order, which makes the
  whole simulation deterministic.
- Cancellation is lazy: :meth:`ScheduledHandle.cancel` marks the event and
  the loop skips it on pop, so cancel is O(1).
- The loop never advances past an optional horizon, letting experiments say
  "run until the release time plus slack" without draining the queue.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.clock import Clock

Callback = Callable[[], None]


@dataclass(order=True)
class Event:
    """A scheduled event; ordering is (time, sequence)."""

    time: float
    sequence: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class ScheduledHandle:
    """Handle returned by :meth:`EventLoop.call_at`; supports cancellation."""

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Mark the event so the loop drops it instead of firing it."""
        self._event.cancelled = True


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Event] = []
        self._sequence = itertools.count()
        self._processed = 0

    # -- scheduling --------------------------------------------------------

    def call_at(self, timestamp: float, callback: Callback, label: str = "") -> ScheduledHandle:
        """Schedule ``callback`` to run at absolute virtual ``timestamp``."""
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule at {timestamp}, clock already at {self.clock.now}"
            )
        event = Event(
            time=float(timestamp),
            sequence=next(self._sequence),
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return ScheduledHandle(event)

    def call_later(self, delay: float, callback: Callback, label: str = "") -> ScheduledHandle:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.clock.now + delay, callback, label=label)

    # -- execution ---------------------------------------------------------

    @property
    def processed_count(self) -> int:
        """Number of events fired so far."""
        return self._processed

    def peek_next_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        self._discard_cancelled_head()
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        self._discard_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time)
        self._processed += 1
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, the horizon, or an event budget.

        Parameters
        ----------
        until:
            Optional virtual-time horizon.  Events at exactly ``until`` still
            fire; later ones stay queued and the clock stops at ``until``.
        max_events:
            Optional safety budget; mainly for tests guarding against
            run-away feedback loops.

        Returns the number of events fired by this call.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self.peek_next_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            self.step()
            fired += 1
        return fired

    def _discard_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
