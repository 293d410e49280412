"""Deterministic discrete-event simulation kernel.

A minimal but complete event scheduler: the heap holds ``(time, sequence,
event)`` tuples, so ``heapq`` orders entries by comparing a float and then
an int in C.  The sequence number is unique and breaks ties
deterministically (the :class:`Event` itself is never compared), so two
runs with the same seed replay the exact same event order.  Cancellation
is lazy (a cancelled event stays in the heap but is skipped when popped),
which keeps both operations O(log n).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be used to
    cancel the callback before it fires.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True
        self.callback = None  # release references early

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    The kernel knows nothing about networks; it only orders callbacks.
    Components schedule work with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time) and read the clock with
    :meth:`now`.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False

    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks that have fired so far."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero (the event fires "immediately",
        after already-queued events at the current time).
        """
        if delay < 0:
            delay = 0.0
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def run_until(self, end_time: float) -> None:
        """Run events in order until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed.  The clock is
        left at ``end_time`` afterwards, even if the queue drained early.
        """
        if self._running:
            raise RuntimeError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and queue[0][0] <= end_time:
                time, _, event = heappop(queue)
                if event.cancelled:
                    continue
                self._now = time
                callback = event.callback
                event.callback = None
                self._events_processed += 1
                callback()
            self._now = max(self._now, end_time)
        finally:
            self._running = False

    def run(self, duration: float) -> None:
        """Run for ``duration`` seconds from the current clock."""
        self.run_until(self._now + duration)
