"""A minimal discrete-event simulation core.

Events are callbacks scheduled at absolute times on a binary heap;
ties break by insertion order, so same-time events run FIFO — a
property the protocol tests rely on.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.log import get_logger, should_log

_log = get_logger(__name__)


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[float], None] = field(compare=False)


class EventEngine:
    """Time-ordered execution of scheduled callbacks."""

    def __init__(self) -> None:
        self._heap: list[_ScheduledEvent] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.executed = 0

    def schedule(
        self, when: float, callback: Callable[[float], None]
    ) -> None:
        """Schedule ``callback(now)`` at absolute time ``when``.

        Scheduling in the past raises — it always indicates a protocol
        bug rather than a legitimate need.
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        event = _ScheduledEvent(
            time=when, seq=next(self._counter), callback=callback
        )
        heapq.heappush(self._heap, event)

    def schedule_every(
        self,
        start: float,
        interval: float,
        callback: Callable[[float], None],
        until: float | None = None,
    ) -> None:
        """Fire ``callback`` at ``start`` and every ``interval`` after.

        Each occurrence runs the callback first and then schedules the
        next one.  ``until`` bounds the last occurrence (inclusive);
        ``None`` repeats forever — pair with :meth:`run_until`.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if until is not None and start > until:
            return  # nothing to do: the bound excludes even start

        def fire(now: float) -> None:
            callback(now)
            next_time = now + interval
            if until is not None and next_time > until:
                return
            self.schedule(next_time, fire)

        self.schedule(start, fire)

    # ------------------------------------------------------------------
    def run_until(self, horizon: float) -> int:
        """Execute events up to and including ``horizon``.

        Returns the number of events executed.  The clock is left at
        ``horizon`` even if the heap empties earlier.
        """
        executed = 0
        # Sampled progress at DEBUG: power-of-two event counts only,
        # so million-event runs stay readable (and the enabled check
        # runs once, outside the hot loop).
        debug = _log.isEnabledFor(logging.DEBUG)
        while self._heap and self._heap[0].time <= horizon:
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.callback(event.time)
            executed += 1
            if debug and should_log(executed, every=1 << 20):
                _log.debug(
                    "engine: %d events executed, t=%.0f (%d pending)",
                    self.executed + executed,
                    self.now,
                    len(self._heap),
                )
        self.now = max(self.now, horizon)
        self.executed += executed
        return executed
